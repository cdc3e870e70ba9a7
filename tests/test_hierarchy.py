import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbl.graph import Graph, UnionFind, load_graph
from flbl.hierarchy import (
    DisconnectedError,
    SizeCapError,
    _HeuristicCutFinder,
    build_edge_hierarchy,
    build_vertex_hierarchy,
    edge_separator,
    export_edge_hierarchy,
    verify_edge_expanding,
    verify_edge_hierarchy,
    verify_vertex_expanding,
    verify_vertex_hierarchy,
    vertex_separator,
)

HALF = Fraction(1, 2)
ONE = Fraction(1, 1)


def random_connected(rng, n, p):
    while True:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.append((u, v))
        g = Graph(n, tuple(edges))
        uf = UnionFind(n)
        for u, v in edges:
            uf.union(u, v)
        if len(uf.groups()) == 1:
            return g


K4 = load_graph("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
P4 = load_graph("4 3\n0 1\n1 2\n2 3\n")
K2 = load_graph("2 1\n0 1\n")
TRIANGLE = load_graph("3 3\n0 1\n1 2\n0 2\n")


def test_verify_k4_full_edge_set():
    ok, _ = verify_edge_expanding(K4, set(range(6)), HALF)
    assert ok


def test_verify_p4_full_edge_set_fails_with_witness():
    ok, witness = verify_edge_expanding(P4, set(range(3)), HALF)
    assert not ok
    assert witness is not None
    s = set(witness)
    crossing = sum(1 for (u, v) in P4.edges if (u in s) != (v in s))
    volume = sum(1 for (u, v) in P4.edges for x in (u, v) if x in s)
    assert 2 * crossing < min(volume, 6 - volume)


def test_verify_empty_x_vacuous():
    ok, _ = verify_edge_expanding(P4, set(), HALF)
    assert ok


def test_edge_separator_k4_returns_full_edge_set():
    assert edge_separator(K4) == set(range(6))


def test_edge_separator_k2():
    assert edge_separator(K2) == {0}


def test_edge_separator_p4():
    x = edge_separator(P4)
    ok, _ = verify_edge_expanding(P4, x, HALF)
    assert ok
    uf = UnionFind(4)
    for eid, (u, v) in enumerate(P4.edges):
        if eid not in x:
            uf.union(u, v)
    assert all(len(c) <= 2 for c in uf.groups())


def test_edge_separator_rejects_disconnected():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedError):
        edge_separator(g)


def test_edge_separator_size_cap():
    g = random_connected(random.Random(0), 19, 0.3)
    with pytest.raises(SizeCapError):
        edge_separator(g, mode="exact")


def test_hierarchy_triangle():
    hier = build_edge_hierarchy(TRIANGLE)
    assert hier.h == 1
    assert set(hier.level) == {1}
    assert verify_edge_hierarchy(TRIANGLE, hier)


def test_hierarchy_disconnected_per_component():
    g = Graph(4, ((0, 1), (2, 3)))
    hier = build_edge_hierarchy(g)
    assert hier.h == 1
    assert hier.level == (1, 1)


def test_hierarchy_random_certified():
    rng = random.Random(3)
    for _ in range(6):
        g = random_connected(rng, rng.randrange(5, 15), 0.3)
        hier = build_edge_hierarchy(g)
        assert hier.h <= math.ceil(math.log2(g.n))
        assert verify_edge_hierarchy(g, hier)


def test_hierarchy_heuristic_mode_runs():
    rng = random.Random(5)
    g = random_connected(rng, 40, 0.12)
    hier = build_edge_hierarchy(g, mode="heuristic")
    assert not hier.certified
    assert hier.h <= math.ceil(math.log2(g.n))
    assert all(lv >= 1 for lv in hier.level)


@st.composite
def multigraph_and_side(draw):
    """A multigraph with parallel edges (and possibly isolated vertices)
    plus a proper nonempty candidate side."""
    n = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=30))
    # repeat some edges so parallel edges are common
    edges += draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    side = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return Graph(n, tuple(edges)), side


@settings(deadline=None, max_examples=80)
@given(multigraph_and_side())
def test_heuristic_check_matches_edge_scan(case):
    g, side = case
    finder = _HeuristicCutFinder(g, HALF)
    cross = sum(1 for (u, v) in g.edges if (u in side) != (v in side))
    # X-degrees that put the violation threshold at exactly `cross`:
    # min volume 2c + 1 violates iff crossing <= c, 2c iff crossing < c
    a, b = min(side), min(set(range(g.n)) - side)
    for vol, want in ((2 * cross + 1, True), (2 * cross, False)):
        degx = [0] * g.n
        degx[a] = degx[b] = vol
        assert finder._check(side, degx, 2 * vol) is want
    assert not finder._check(set(), degx, 2 * vol)
    assert not finder._check(set(range(g.n)), degx, 2 * vol)


def test_export_format():
    hier = build_edge_hierarchy(TRIANGLE)
    doc = export_edge_hierarchy(hier)
    lines = doc.strip().splitlines()
    assert lines[0] == "1 1/2 certified"
    assert lines[1:] == ["0 1", "1 1", "2 1"]


# vertex side


def test_vertex_separator_star():
    g = load_graph("5 4\n0 1\n0 2\n0 3\n0 4\n")
    x = vertex_separator(g)
    assert 0 in x
    ok, _ = verify_vertex_expanding(g, x, ONE)
    assert ok


def test_vertex_separator_k2():
    x = vertex_separator(K2)
    ok, _ = verify_vertex_expanding(K2, x, ONE)
    assert ok


def test_vertex_separator_c6():
    g = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)))
    x = vertex_separator(g)
    ok, _ = verify_vertex_expanding(g, x, ONE)
    assert ok
    uf = UnionFind(6)
    for (u, v) in g.edges:
        if u not in x and v not in x:
            uf.union(u, v)
    sizes = [len(c) for c in uf.groups() if not (set(c) & x)]
    assert all(s <= 3 for s in sizes)


def test_vertex_hierarchy_small_random():
    rng = random.Random(9)
    for _ in range(5):
        g = random_connected(rng, rng.randrange(4, 11), 0.35)
        hier = build_vertex_hierarchy(g)
        assert hier.h <= math.ceil(math.log2(g.n)) or g.n == 1
        assert verify_vertex_hierarchy(g, hier)


def test_vertex_expanding_witness():
    g = load_graph("5 4\n0 1\n0 2\n0 3\n0 4\n")
    ok, cut = verify_vertex_expanding(g, set(range(5)), ONE)
    assert not ok
    L, S, R = cut
    assert S == [0]
