import itertools
import random

import pytest

from flbl.codeshares import (
    NONRESIDUE,
    Q,
    CodeShare,
    decode,
    encode,
)


def test_nonresidue_is_nonresidue():
    assert pow(NONRESIDUE, (Q - 1) // 2, Q) == Q - 1


def test_k1_constant_polynomial():
    shares = encode([42])
    assert len(shares) == 1
    assert (shares[0].a, shares[0].b) == (42, 0)
    assert decode(shares, 1) == [42]


def test_k2_single_coefficient_both_shares_equal():
    shares = encode([7, 9])
    assert len(shares) == 2
    assert (shares[0].a, shares[0].b) == (7, 9)
    assert (shares[1].a, shares[1].b) == (7, 9)
    for sh in shares:
        assert decode([sh], 2) == [7, 9]


def test_k8_every_4_subset_reconstructs():
    rng = random.Random(1)
    m = [rng.randrange(Q) for _ in range(8)]
    shares = encode(m)
    for subset in itertools.combinations(shares, 4):
        assert decode(list(subset), 8) == m


def test_zero_message():
    m = [0] * 5
    shares = encode(m)
    assert all(sh.a == 0 and sh.b == 0 for sh in shares)
    assert decode(shares[:3], 5) == m


def test_round_trip_various_k():
    rng = random.Random(2)
    for k in list(range(1, 20)) + [33, 64]:
        m = [rng.randrange(Q) for _ in range(k)]
        shares = encode(m)
        t = (k + 1) // 2
        subset = rng.sample(shares, t)
        assert decode(subset, k) == m


def test_decode_all_equals_decode_minimal():
    rng = random.Random(3)
    m = [rng.randrange(Q) for _ in range(9)]
    shares = encode(m)
    assert decode(shares, 9) == decode(shares[: (9 + 1) // 2], 9)


def test_insufficient_shares():
    m = [1, 2, 3, 4, 5, 6]
    shares = encode(m)
    with pytest.raises(ValueError):
        decode(shares[:2], 6)


def test_duplicate_conflicting_shares():
    m = [1, 2, 3, 4]
    shares = encode(m)
    bad = CodeShare(shares[0].index, shares[0].a + 1, shares[0].b)
    with pytest.raises(ValueError):
        decode([shares[0], bad, shares[1]], 4)


def test_share_wire_format():
    sh = CodeShare(3, 123456789, 987654321)
    raw = sh.to_bytes()
    assert len(raw) == 20  # 32 + 64 + 64 bits little-endian
    assert CodeShare.from_bytes(raw) == sh
