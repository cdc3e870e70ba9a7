"""Reed-Solomon code shares over GF(q) and its quadratic extension.

A length-k message over GF(q) is packed into ceil(k/2) coefficients of a
polynomial over GF(q^2); the k shares are its evaluations at 1..k, and
any ceil(k/2) of them reconstruct the message by interpolation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

Q = (1 << 61) - 1  # Mersenne prime 2^61 - 1


def _find_nonresidue(q: int) -> int:
    for a in range(2, 1000):
        if pow(a, (q - 1) // 2, q) == q - 1:
            return a
    raise RuntimeError("no quadratic non-residue found")


NONRESIDUE = _find_nonresidue(Q)


def _inv(a: int) -> int:
    return pow(a, Q - 2, Q)


class F2:
    """GF(q^2) element a + b*xi with xi^2 = NONRESIDUE, components mod q."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        self.a = a % Q
        self.b = b % Q

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"F2({self.a}, {self.b})"

    def __add__(self, other):
        return F2(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return F2(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        return F2(
            self.a * other.a + self.b * other.b % Q * NONRESIDUE,
            self.a * other.b + self.b * other.a,
        )

    def inverse(self) -> "F2":
        d = (self.a * self.a - NONRESIDUE * self.b * self.b) % Q
        if d == 0:
            raise ZeroDivisionError("inverse of zero in GF(q^2)")
        di = _inv(d)
        return F2(self.a * di, -self.b * di)


ZERO = F2(0)
ONE = F2(1)


@dataclass(frozen=True)
class CodeShare:
    """Evaluation share (i, g(i)) with i in 1..k and g over GF(q^2)."""

    index: int
    a: int
    b: int

    def to_bytes(self) -> bytes:
        return struct.pack("<IQQ", self.index, self.a, self.b)

    @staticmethod
    def from_bytes(raw: bytes) -> "CodeShare":
        i, a, b = struct.unpack("<IQQ", raw)
        return CodeShare(i, a, b)


def encode(message: list[int], d: int = 2) -> list[CodeShare]:
    """Break a message of k GF(q) symbols into k code shares, any ceil(k/d)
    of which reconstruct it.  Only d=2 is supported."""
    if d != 2:
        raise ValueError("only d=2 is supported")
    k = len(message)
    if k == 0:
        return []
    if k >= Q:
        raise ValueError(f"message length {k} must be below the field size")
    for s in message:
        if not (0 <= s < Q):
            raise ValueError("message symbol out of field range")
    # coefficient t packs symbols (2t, 2t+1); odd k zero-pads the last b
    coeffs = []
    for t in range(0, k, 2):
        a = message[t]
        b = message[t + 1] if t + 1 < k else 0
        coeffs.append(F2(a, b))
    shares = []
    for i in range(1, k + 1):
        x = F2(i)
        acc = ZERO
        for c in reversed(coeffs):
            acc = acc * x + c
        shares.append(CodeShare(i, acc.a, acc.b))
    return shares


def decode(shares: list[CodeShare], k: int, d: int = 2) -> list[int]:
    """Recover the message from at least ceil(k/d) distinct shares by
    Lagrange interpolation over GF(q^2)."""
    if d != 2:
        raise ValueError("only d=2 is supported")
    if k == 0:
        return []
    t = (k + 1) // 2
    seen = {}
    for sh in shares:
        if not (1 <= sh.index <= k):
            raise ValueError(f"share index {sh.index} out of range 1..{k}")
        if sh.index in seen and seen[sh.index] != (sh.a, sh.b):
            raise ValueError(f"conflicting duplicate share index {sh.index}")
        seen[sh.index] = (sh.a, sh.b)
    if len(seen) < t:
        raise ValueError(f"need {t} distinct shares to decode, got {len(seen)}")
    pts = sorted(seen.items())[:t]
    xs = [F2(i) for i, _ in pts]
    ys = [F2(a, b) for _, (a, b) in pts]
    # interpolate coefficients of the degree-(t-1) polynomial
    coeffs = [ZERO] * t
    for j in range(t):
        # numerator polynomial prod_{i != j} (x - x_i), scaled by 1/denominator
        denom = ONE
        for i in range(t):
            if i != j:
                denom = denom * (xs[j] - xs[i])
        scale = ys[j] * denom.inverse()
        basis = [ONE]
        for i in range(t):
            if i == j:
                continue
            nxt = [ZERO] * (len(basis) + 1)
            for p, c in enumerate(basis):
                nxt[p + 1] = nxt[p + 1] + c
                nxt[p] = nxt[p] - c * xs[i]
            basis = nxt
        for p, c in enumerate(basis):
            coeffs[p] = coeffs[p] + c * scale
    out = []
    for t_i in range(t):
        out.append(coeffs[t_i].a)
        out.append(coeffs[t_i].b)
    return out[:k]
