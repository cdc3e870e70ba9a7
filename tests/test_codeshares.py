import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbl.codeshares import (
    MAX_WIDTH,
    CodeShare,
    decode,
    encode,
    field_for,
    is_prime,
)
from support import F2, share_from_bytes, share_to_bytes

# the field of 60-bit symbols, the widest name the earlier fixed field held
FIELD60 = field_for(60)
Q = FIELD60.p


def test_nonresidue_is_nonresidue():
    for width in (1, 2, 26, 60, MAX_WIDTH):
        fld = field_for(width)
        assert pow(fld.nonresidue, (fld.p - 1) // 2, fld.p) == fld.p - 1


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_field_for_matches_trial_division():
    # the first prime above 2^w by trial division; its least non-residue
    # from the set of squares while that is small, else by Euler's criterion
    for width in range(1, 25):
        p = next(n for n in itertools.count((1 << width) + 1) if _trial_division_prime(n))
        if p < 1 << 13:
            squares = {x * x % p for x in range(1, p)}
            nonres = next(a for a in itertools.count(2) if a not in squares)
        else:
            nonres = next(a for a in itertools.count(2) if pow(a, (p - 1) // 2, p) == p - 1)
        fld = field_for(width)
        assert (fld.p, fld.nonresidue) == (p, nonres), width
        assert fld.p.bit_length() == width + 1
        assert field_for(width) is fld  # cached per width
    for n in range(1 << 12):
        assert is_prime(n) == _trial_division_prime(n), n


def test_field_for_rejects_widths_outside_range():
    for width in (0, -1, MAX_WIDTH + 1):
        with pytest.raises(ValueError):
            field_for(width)


def test_k1_constant_polynomial():
    shares = encode([42], FIELD60)
    assert len(shares) == 1
    assert (shares[0].a, shares[0].b) == (42, 0)
    assert decode(shares, 1, FIELD60) == [42]


def test_k2_single_coefficient_both_shares_equal():
    shares = encode([7, 9], FIELD60)
    assert len(shares) == 2
    assert (shares[0].a, shares[0].b) == (7, 9)
    assert (shares[1].a, shares[1].b) == (7, 9)
    for sh in shares:
        assert decode([sh], 2, FIELD60) == [7, 9]


def test_k8_every_4_subset_reconstructs():
    rng = random.Random(1)
    m = [rng.randrange(Q) for _ in range(8)]
    shares = encode(m, FIELD60)
    for subset in itertools.combinations(shares, 4):
        assert decode(list(subset), 8, FIELD60) == m


def test_zero_message():
    m = [0] * 5
    shares = encode(m, FIELD60)
    assert all(sh.a == 0 and sh.b == 0 for sh in shares)
    assert decode(shares[:3], 5, FIELD60) == m


def test_round_trip_various_k():
    rng = random.Random(2)
    for k in list(range(1, 20)) + [33, 64]:
        m = [rng.randrange(Q) for _ in range(k)]
        shares = encode(m, FIELD60)
        t = (k + 1) // 2
        subset = rng.sample(shares, t)
        assert decode(subset, k, FIELD60) == m


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_round_trip_per_width_field(data):
    # names of 2..60 bits: every half of the shares gives the message back,
    # with symbols 0 and 2^w - 1 and shares at 0 and p - 1 in range
    width = data.draw(st.integers(2, 60))
    fld = field_for(width)
    k = data.draw(st.integers(1, min(64, (1 << width) - 1)))
    sym = st.one_of(st.integers(0, (1 << width) - 1), st.sampled_from([0, (1 << width) - 1]))
    m = data.draw(st.lists(sym, min_size=k, max_size=k))
    shares = encode(m, fld)
    assert [sh.index for sh in shares] == list(range(1, k + 1))
    assert all(0 <= v < fld.p for sh in shares for v in (sh.a, sh.b))
    subset = data.draw(st.permutations(shares))[:(k + 1) // 2]
    assert decode(subset, k, fld) == m


def test_encode_rejects_symbol_outside_field():
    fld = field_for(4)
    with pytest.raises(ValueError):
        encode([fld.p], fld)
    with pytest.raises(ValueError):
        encode([0] * fld.p, fld)


def test_decode_all_equals_decode_minimal():
    rng = random.Random(3)
    m = [rng.randrange(Q) for _ in range(9)]
    shares = encode(m, FIELD60)
    assert decode(shares, 9, FIELD60) == decode(shares[: (9 + 1) // 2], 9, FIELD60)


def test_insufficient_shares():
    m = [1, 2, 3, 4, 5, 6]
    shares = encode(m, FIELD60)
    with pytest.raises(ValueError):
        decode(shares[:2], 6, FIELD60)


def test_duplicate_conflicting_shares():
    m = [1, 2, 3, 4]
    shares = encode(m, FIELD60)
    bad = CodeShare(shares[0].index, shares[0].a + 1, shares[0].b)
    with pytest.raises(ValueError):
        decode([shares[0], bad, shares[1]], 4, FIELD60)


def test_decode_rejects_share_off_polynomial():
    # a share beyond the ceil(k/2) lowest indices with a changed a or b
    # value is off the interpolated polynomial, wherever it lies in the
    # list; the unchanged shares decode
    rng = random.Random(4)
    for k in (2, 5, 8, 9):
        m = [rng.randrange(Q) for _ in range(k)]
        shares = encode(m, FIELD60)
        assert decode(shares, k, FIELD60) == m
        t = (k + 1) // 2
        for i in range(t, k):
            for bad in (CodeShare(i + 1, (shares[i].a + 1) % Q, shares[i].b),
                        CodeShare(i + 1, shares[i].a, (shares[i].b + 1) % Q)):
                changed = shares[:i] + [bad] + shares[i + 1:]
                with pytest.raises(ValueError, match=f"share {i + 1} is off"):
                    decode(changed[::-1], k, FIELD60)
    # odd k zero-pads the last b coefficient, so a changed b value is seen
    # even among exactly ceil(k/2) shares; with even k they are any codeword
    shares = encode([rng.randrange(Q) for _ in range(7)], FIELD60)
    bad = CodeShare(2, shares[1].a, (shares[1].b + 1) % Q)
    with pytest.raises(ValueError, match="padding coefficient"):
        decode([shares[0], bad] + shares[2:4], 7, FIELD60)
    shares = encode([rng.randrange(Q) for _ in range(8)], FIELD60)
    bad = CodeShare(2, shares[1].a, (shares[1].b + 1) % Q)
    assert len(decode([shares[0], bad] + shares[2:4], 8, FIELD60)) == 8


def test_share_wire_format():
    sh = CodeShare(3, 123456789, 987654321)
    raw = share_to_bytes(sh)
    assert len(raw) == 20  # 32 + 64 + 64 bits little-endian
    assert share_from_bytes(raw) == sh


ONE = F2(FIELD60, 1)
ZERO = F2(FIELD60, 0)


def _inverse(z):
    d = (z.a * z.a - FIELD60.nonresidue * z.b * z.b) % Q
    di = pow(d, Q - 2, Q)
    return F2(FIELD60, z.a * di, -z.b * di)


def lagrange_decode(shares, k):
    """Oracle: the cubic-time decoder that builds every Lagrange basis
    polynomial in GF(p^2), with the same checks and the same choice of
    the ceil(k/2) lowest share indices as `decode`, and evaluates the
    polynomial in GF(p^2) at every further share."""
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
    xs = [F2(FIELD60, i) for i, _ in pts]
    ys = [F2(FIELD60, a, b) for _, (a, b) in pts]
    coeffs = [ZERO] * t
    for j in range(t):
        denom = ONE
        for i in range(t):
            if i != j:
                denom = denom * (xs[j] - xs[i])
        scale = ys[j] * _inverse(denom)
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
    for i, (a, b) in sorted(seen.items())[t:]:
        at = ZERO
        for c in reversed(coeffs):
            at = at * F2(FIELD60, i) + c
        if at != F2(FIELD60, a, b):
            raise ValueError(f"share {i} is off the interpolated polynomial")
    if k & 1 and coeffs[-1].b:
        raise ValueError("the shares are no codeword: the padding coefficient is not 0")
    out = []
    for c in coeffs:
        out += [c.a, c.b]
    return out[:k]


def _outcome(fn, shares, k):
    try:
        return fn(shares, k)
    except ValueError as exc:
        return str(exc)


# field values on both sides of p, including p itself
FIELD = st.one_of(st.integers(0, Q), st.sampled_from([0, 1, Q - 1, Q]))


@st.composite
def share_lists(draw):
    """(shares, k): a random multiset of a message's shares, some with
    corrupted values, sometimes with a conflicting duplicate or an index
    out of range."""
    k = draw(st.integers(1, 80))
    shares = encode(draw(st.lists(st.integers(0, Q - 1), min_size=k, max_size=k)), FIELD60)
    # enough distinct shares to decode in most cases, then some repeats
    count = draw(st.one_of(st.integers((k + 1) // 2, k), st.integers(0, k)))
    picks = draw(st.permutations(range(k)))[:count]
    if picks:
        picks += draw(st.lists(st.sampled_from(picks), max_size=5))
    bad = draw(st.sets(st.integers(0, k - 1), max_size=4))
    fake = {i: CodeShare(i + 1, draw(FIELD), draw(FIELD)) for i in sorted(bad)}
    out = [fake.get(i, shares[i]) for i in picks]
    extra = draw(st.sampled_from(["none"] * 6 + ["conflict", "range"]))
    if extra == "conflict" and out:
        sh = draw(st.sampled_from(out))
        out.insert(draw(st.integers(0, len(out))), CodeShare(sh.index, sh.a ^ 1, sh.b))
    elif extra == "range":
        out.append(CodeShare(draw(st.sampled_from([0, k + 1])), 0, 0))
    return draw(st.permutations(out)), k


@settings(deadline=None, max_examples=150)
@given(share_lists())
def test_decode_matches_lagrange_oracle(case):
    shares, k = case
    assert (_outcome(lambda sh, k: decode(sh, k, FIELD60), shares, k)
            == _outcome(lagrange_decode, shares, k))
