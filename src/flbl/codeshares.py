"""Reed-Solomon code shares over GF(q) and its quadratic extension.

A length-k message over GF(q) is packed into ceil(k/2) coefficients of a
polynomial over GF(q^2); the k shares are its evaluations at 1..k, and
any ceil(k/2) of them reconstruct the message by interpolation.
"""

from __future__ import annotations

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


ZERO = F2(0)


@dataclass(frozen=True)
class CodeShare:
    """Evaluation share (i, g(i)) with i in 1..k and g over GF(q^2)."""

    index: int
    a: int
    b: int


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
    Lagrange interpolation over GF(q^2) through the ceil(k/d) lowest
    share indices, in O(k^2) field operations."""
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
    # The nodes are integers, so the master polynomial prod (x - x_i) and
    # the node weights 1 / prod_{i != j} (x_j - x_i) lie in GF(q); each
    # basis polynomial is the master divided by (x - x_j), synthetically.
    master = [1]  # lowest degree first
    for x, _ in pts:
        master = [(up - x * c) % Q for up, c in zip([0] + master, master + [0])]
    ca = [0] * t
    cb = [0] * t
    for x, (a, b) in pts:
        w = 1
        for x2, _ in pts:
            if x2 != x:
                w = w * (x - x2) % Q
        w = _inv(w)
        sa, sb = a * w % Q, b * w % Q
        c = 1  # quotient coefficients, highest degree first
        for p in range(t - 1, -1, -1):
            ca[p] += c * sa
            cb[p] += c * sb
            c = (master[p] + x * c) % Q
    out = []
    for p in range(t):
        out.append(ca[p] % Q)
        out.append(cb[p] % Q)
    return out[:k]
