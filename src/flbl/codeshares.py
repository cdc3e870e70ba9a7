"""Reed-Solomon code shares over GF(p) and its quadratic extension.

A length-k message over GF(p) is packed into ceil(k/2) coefficients of a
polynomial over GF(p^2); the k shares are its evaluations at 1..k, and
any ceil(k/2) of them reconstruct the message by interpolation.  The
nodes 1..k lie in GF(p), so encode and decode only scale GF(p^2)
elements by GF(p) ones and work on the two components apart.

The field is an argument: a label file uses the first prime above
2^w, where w is the width of one message symbol (`field_for`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

# Miller-Rabin with these bases is exact below 3.3 * 10^24 > 2^81.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_WIDTH = 80


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 2^81."""
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """GF(p^2) as pairs (a, b) = a + b*xi, with xi^2 = nonresidue mod p."""

    p: int
    nonresidue: int


@cache
def field_for(width: int) -> Field:
    """The field of `width`-bit symbols: p is the first prime above
    2^width, with its least quadratic non-residue.  Cached per width."""
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"symbol width {width} is outside 1..{MAX_WIDTH}")
    p = (1 << width) + 1
    while not is_prime(p):
        p += 2
    a = 2
    while pow(a, (p - 1) // 2, p) != p - 1:
        a += 1
    return Field(p, a)


@dataclass(frozen=True)
class CodeShare:
    """Evaluation share (i, g(i)) with i in 1..k and g over GF(p^2)."""

    index: int
    a: int
    b: int


def encode(message: list[int], field: Field) -> list[CodeShare]:
    """Break a message of k GF(p) symbols into k code shares, any
    ceil(k/2) of which reconstruct it."""
    p = field.p
    k = len(message)
    if k >= p:
        raise ValueError(f"message length {k} must be below the field size")
    for s in message:
        if not (0 <= s < p):
            raise ValueError("message symbol out of field range")
    # coefficient t packs symbols (2t, 2t+1); odd k zero-pads the last b
    ca = message[0::2]
    cb = message[1::2] + [0] * (k & 1)
    shares = []
    for x in range(1, k + 1):
        a = b = 0
        for t in range(len(ca) - 1, -1, -1):
            a = (a * x + ca[t]) % p
            b = (b * x + cb[t]) % p
        shares.append(CodeShare(x, a, b))
    return shares


def distinct_shares(shares, k: int) -> dict[int, CodeShare]:
    """index -> share of a length-k message's shares.  A share index
    outside 1..k, or two shares with one index but different values,
    raises ValueError."""
    seen: dict[int, CodeShare] = {}
    for sh in shares:
        if not 1 <= sh.index <= k:
            raise ValueError(f"share index {sh.index} out of range 1..{k}")
        if seen.setdefault(sh.index, sh) != sh:
            raise ValueError(f"conflicting duplicate share index {sh.index}")
    return seen


def decode(shares: list[CodeShare], k: int, field: Field) -> list[int]:
    """Recover the message from at least ceil(k/2) distinct shares by
    Lagrange interpolation through the ceil(k/2) lowest share indices, in
    O(k^2) field operations.  Every further share must lie on the
    interpolated polynomial, and for odd k its zero-padded last b
    coefficient must be 0; else the shares are no codeword and
    ValueError is raised."""
    if k == 0:
        return []
    p = field.p
    t = (k + 1) // 2
    seen = distinct_shares(shares, k)
    if len(seen) < t:
        raise ValueError(f"need {t} distinct shares to decode, got {len(seen)}")
    pts = [(x, (sh.a, sh.b)) for x, sh in sorted(seen.items())]
    low = pts[:t]
    # The nodes are integers, so the master polynomial prod (x - x_i) and
    # the node weights 1 / prod_{i != j} (x_j - x_i) lie in GF(p); each
    # basis polynomial is the master divided by (x - x_j), synthetically.
    master = [1]  # lowest degree first
    for x, _ in low:
        master = [(up - x * c) % p for up, c in zip([0] + master, master + [0])]
    ca = [0] * t
    cb = [0] * t
    for x, (a, b) in low:
        w = 1
        for x2, _ in low:
            if x2 != x:
                w = w * (x - x2) % p
        w = pow(w, -1, p)
        sa, sb = a * w % p, b * w % p
        c = 1  # quotient coefficients, highest degree first
        for i in range(t - 1, -1, -1):
            ca[i] += c * sa
            cb[i] += c * sb
            c = (master[i] + x * c) % p
    ca = [c % p for c in ca]
    cb = [c % p for c in cb]
    for x, (a, b) in pts[t:]:
        ea = eb = 0
        for i in range(t - 1, -1, -1):  # Horner
            ea = (ea * x + ca[i]) % p
            eb = (eb * x + cb[i]) % p
        if (ea, eb) != (a % p, b % p):
            raise ValueError(f"share {x} is off the interpolated polynomial")
    if k & 1 and cb[-1]:
        raise ValueError("the shares are no codeword: the padding coefficient is not 0")
    return [v for pair in zip(ca, cb) for v in pair][:k]
