import random

import pytest

from flbl.graph import (
    FaultSet,
    Graph,
    GraphParseError,
    load_graph,
    oracle_components,
    reduce_degree3,
)
from support import bfs_components, oracle_connected


def comps_as_sets(comps):
    return {frozenset(c) for c in comps}


def test_load_triangle():
    g = load_graph("3 3\n0 1\n1 2\n0 2\n")
    assert g.n == 3 and g.m == 3
    assert g.edges == ((0, 1), (1, 2), (0, 2))


def test_load_isolated():
    g = load_graph("2 0\n")
    assert g.n == 2 and g.m == 0


def test_load_path():
    g = load_graph("4 3\n0 1\n1 2\n2 3\n")
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_load_comments_ignored():
    g = load_graph("# a triangle\n3 3\n0 1\n# middle\n1 2\n0 2\n")
    assert g.m == 3


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ("3 2\n0 1\n1 5\n", "line 3"),
        ("3 1\n0 0\n", "self-loop"),
        ("3 1\nx y\n", "line 2"),
        ("3 2\n0 1\n", "declares 2"),
        ("", "empty"),
    ],
)
def test_load_errors(doc, fragment):
    with pytest.raises(GraphParseError) as exc:
        load_graph(doc)
    assert fragment in str(exc.value)


def test_parallel_edges_allowed():
    g = load_graph("2 2\n0 1\n0 1\n")
    assert g.m == 2
    assert g.degree(0) == 2


def test_oracle_triangle_no_faults():
    g = load_graph("3 3\n0 1\n1 2\n0 2\n")
    comps = oracle_components(g, FaultSet.of([], g))
    assert comps_as_sets(comps) == {frozenset({0, 1, 2})}


def test_oracle_path_bridge():
    g = load_graph("4 3\n0 1\n1 2\n2 3\n")
    comps = oracle_components(g, FaultSet.of([1], g))
    assert comps_as_sets(comps) == {frozenset({0, 1}), frozenset({2, 3})}


def test_oracle_matches_bfs_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(4, 21)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    edges.append((u, v))
        g = Graph(n, tuple(edges))
        k = min(5, g.m)
        f = FaultSet.of(rng.sample(range(g.m), k), g)
        assert comps_as_sets(oracle_components(g, f)) == comps_as_sets(
            bfs_components(g, f)
        )


def test_faultset_validation():
    g = load_graph("3 3\n0 1\n1 2\n0 2\n")
    with pytest.raises(ValueError):
        FaultSet.of([0, 0], g)
    with pytest.raises(ValueError):
        FaultSet.of([9], g)
    with pytest.raises(ValueError):
        FaultSet.of([0, 1, 2], g, f=2)


def test_reduce_star():
    # K_{1,3}: center 0 has degree 3 and becomes a 3-cycle
    g = load_graph("4 3\n0 1\n0 2\n0 3\n")
    red = reduce_degree3(g)
    assert max(red.reduced.degrees()) == 3
    # 3 cycle vertices for the center plus the three leaves
    assert red.reduced.n == 6
    assert red.reduced.m == 6


def test_reduce_path_unchanged():
    g = load_graph("3 2\n0 1\n1 2\n")
    red = reduce_degree3(g)
    assert red.reduced.n == 3
    assert red.reduced.m == 2
    assert max(red.reduced.degrees()) <= 2


def test_reduce_k4_connectivity_under_all_single_faults():
    g = load_graph("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    red = reduce_degree3(g)
    assert red.reduced.n == 12
    assert max(red.reduced.degrees()) == 3
    for eid in range(g.m):
        for s in range(g.n):
            for t in range(s + 1, g.n):
                orig = oracle_connected(g, FaultSet.of([eid], g), s, t)
                mapped = oracle_connected(
                    red.reduced,
                    FaultSet.of([eid], red.reduced),
                    red.vertex_map[s],
                    red.vertex_map[t],
                )
                assert orig == mapped


def test_reduce_preserves_connectivity_random_faults():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randrange(5, 12)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.45:
                    edges.append((u, v))
        if not edges:
            continue
        g = Graph(n, tuple(edges))
        red = reduce_degree3(g)
        assert max(red.reduced.degrees()) <= 3
        for _ in range(20):
            k = rng.randrange(0, min(4, g.m) + 1)
            fa = rng.sample(range(g.m), k)
            s, t = rng.randrange(n), rng.randrange(n)
            orig = oracle_connected(g, FaultSet.of(fa, g), s, t)
            mapped = oracle_connected(
                red.reduced,
                FaultSet.of(fa, red.reduced),
                red.vertex_map[s],
                red.vertex_map[t],
            )
            assert orig == mapped


def test_reduce_isolated_vertices_carried():
    g = Graph(4, ((0, 1),))
    red = reduce_degree3(g)
    assert red.reduced.n == 4
    assert red.vertex_map[2] != red.vertex_map[3]
