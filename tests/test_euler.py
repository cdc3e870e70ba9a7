import random
from fractions import Fraction

import pytest

from flbl.euler import EulerFrame, WeightedTour, dyadic_cover
from flbl.graph import Graph, UnionFind
from flbl.hierarchy import EdgeLevelAssignment, build_edge_hierarchy
from support import ball_element, block_range, dist

HALF = Fraction(1, 2)


def flat_levels(g, ell=1):
    return EdgeLevelAssignment(
        level=tuple([ell] * g.m), h=ell, phi=HALF, certified=True
    )


def elem_str(e):
    if e[0] == "v":
        return str(e[1])
    return f"({e[1]},{e[2]})"


def test_paper_ten_vertex_tour():
    # tree edges on a..j (0..9): a-b, b-c, b-d, d-e, d-f, d-g, a-h, h-i, h-j
    names = "abcdefghij"
    ix = {c: i for i, c in enumerate(names)}
    edges = [
        (ix["a"], ix["b"]),
        (ix["b"], ix["c"]),
        (ix["b"], ix["d"]),
        (ix["d"], ix["e"]),
        (ix["d"], ix["f"]),
        (ix["d"], ix["g"]),
        (ix["a"], ix["h"]),
        (ix["h"], ix["i"]),
        (ix["h"], ix["j"]),
    ]
    g = Graph(10, tuple(edges))
    frame = EulerFrame(g, flat_levels(g))
    tour = ",".join(
        elem_str(e).translate(str.maketrans("0123456789", names)) for e in frame.tour
    )
    expected = (
        "a,(a,b),b,(b,c),c,(c,b),(b,d),d,(d,e),e,(e,d),"
        "(d,f),f,(f,d),(d,g),g,(g,d),(d,b),(b,a),"
        "(a,h),h,(h,i),i,(i,h),(h,j),j,(j,h),(h,a)"
    )
    assert tour == expected


def test_single_vertex_tour():
    g = Graph(1, ())
    frame = EulerFrame(g, flat_levels(g))
    assert len(frame.tour) == 1
    assert frame.tour[0] == ("v", 0)


def test_triangle_tour_length():
    g = Graph(3, ((0, 1), (1, 2), (0, 2)))
    frame = EulerFrame(g, flat_levels(g))
    assert len(frame.tstar) == 2
    assert len(frame.tour) == 3 + 2 * 2


def test_tstar_is_level_minimum():
    # minimality: no non-tree edge has level below the max level on its path
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randrange(4, 12)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    edges.append((u, v))
        if not edges:
            continue
        g = Graph(n, tuple(edges))
        hier = build_edge_hierarchy(g)
        frame = EulerFrame(g, hier)
        parent, pedge = frame.parent, frame.parent_edge
        comp = UnionFind(n)
        for eid in frame.tstar:
            comp.union(*g.edges[eid])

        def path_edges(u, v):
            au = []
            uu, vv = u, v
            seen = {uu: 0}
            while parent[uu] != -1:
                au.append(pedge[uu])
                uu = parent[uu]
                seen[uu] = len(au)
            chain = []
            while vv not in seen:
                chain.append(pedge[vv])
                vv = parent[vv]
            return au[: seen[vv]] + chain

        for eid in range(g.m):
            if eid in frame.tstar:
                continue
            u, v = g.edges[eid]
            if comp.find(u) != comp.find(v):
                continue
            pmax = max(hier.level[e] for e in path_edges(u, v))
            assert hier.level[eid] >= pmax


def test_level_tree_tours_are_valid_euler_tours():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(4, 14)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    edges.append((u, v))
        if not edges:
            continue
        g = Graph(n, tuple(edges))
        hier = build_edge_hierarchy(g)
        frame = EulerFrame(g, hier)
        for ell in range(1, hier.h + 1):
            for tid, tree in frame.trees_at(ell).items():
                assert tree.positions == sorted(tree.positions)
                # replay the walk: subsequence must be a coherent tour of T
                cur = None
                first_seen = set()
                for pos in tree.positions:
                    elem = frame.tour[pos]
                    if elem[0] == "v":
                        if cur is not None:
                            assert elem[1] == cur
                        cur = elem[1]
                        first_seen.add(elem[1])
                    else:
                        assert elem[1] == cur
                        cur = elem[2]
                assert first_seen == {frame.tour[p][1] for p in tree.vertex_positions}
                nv = len(tree.vertex_positions)
                assert len(tree.positions) == nv + 2 * (nv - 1)


def test_ball_radius_zero_and_all_zero_weights():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    frame = EulerFrame(g, flat_levels(g))
    tree = frame.trees_at(1)[0]
    wt = WeightedTour(frame, tree, f=1, phi=HALF)
    # no non-tree edges: all weights zero, ball covers the whole tree
    assert wt.W_real == 0
    assert ball_element(wt, frame.pos_vertex[0], 0) == {0, 1, 2, 3}


def naive_ball(frame, wt, pos, r):
    tree = wt.tree
    out = set()
    i = tree.local_of[pos]
    for j, p in enumerate(tree.positions):
        elem = frame.tour[p]
        if elem[0] != "v":
            continue
        lo, hi = min(i, j), max(i, j)
        d = sum(wt.wt[x] for x in range(lo + 1, hi))
        if d <= r:
            out.add(elem[1])
    return out


def test_ball_matches_naive_oracle():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randrange(5, 13)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.45:
                    edges.append((u, v))
        if not edges:
            continue
        g = Graph(n, tuple(edges))
        hier = build_edge_hierarchy(g)
        frame = EulerFrame(g, hier)
        for ell in range(1, hier.h + 1):
            for tid, tree in frame.trees_at(ell).items():
                wt = WeightedTour(frame, tree, f=2, phi=HALF)
                for pos in tree.positions:
                    for r in (0, 1, 2):
                        assert ball_element(wt, pos, r) == naive_ball(
                            frame, wt, pos, r
                        ), (g.edges, ell, pos, r)


def test_ball_rejects_foreign_element():
    g = Graph(5, ((0, 1), (1, 2), (3, 4), (2, 3)))
    levels = EdgeLevelAssignment(level=(1, 1, 1, 2), h=2, phi=HALF, certified=True)
    frame = EulerFrame(g, levels)
    trees = frame.trees_at(1)
    small = min(trees.values(), key=lambda t: len(t.vertex_positions))
    big = max(trees.values(), key=lambda t: len(t.vertex_positions))
    wt = WeightedTour(frame, small, f=1, phi=HALF)
    with pytest.raises((ValueError, KeyError)):
        ball_element(wt, big.positions[0], 1)


def test_removing_k_tree_edges_gives_2k_plus_1_intervals():
    g = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
    frame = EulerFrame(g, flat_levels(g))
    tree = frame.trees_at(1)[0]
    rng = random.Random(7)
    for k in (1, 2, 3):
        cut = rng.sample(sorted(frame.tstar), k)
        cut_positions = set()
        for eid in cut:
            u, v = g.edges[eid]
            c = v if frame.parent[v] == u else u
            p = frame.parent[c]
            cut_positions.add(frame.pos_oedge[(p, c)])
            cut_positions.add(frame.pos_oedge[(c, p)])
        intervals = 1
        for pos in tree.positions:
            if pos in cut_positions:
                intervals += 1
        assert intervals == 2 * k + 1


def test_dist_symmetry():
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 4)))
    hier = build_edge_hierarchy(g)
    frame = EulerFrame(g, hier)
    for ell in range(1, hier.h + 1):
        for tree in frame.trees_at(ell).values():
            wt = WeightedTour(frame, tree, f=1, phi=HALF)
            ps = tree.positions
            for a in ps[::2]:
                for b in ps[::3]:
                    assert dist(wt, a, b) == dist(wt, b, a)


def test_dyadic_cover_full_and_single():
    g = Graph(8, tuple((i, i + 1) for i in range(7)) + ((0, 2), (1, 3), (4, 6), (5, 7), (0, 4), (2, 6)))
    levels = EdgeLevelAssignment(
        level=tuple([1] * 7 + [1] * 6), h=1, phi=HALF, certified=True
    )
    frame = EulerFrame(g, levels)
    tree = frame.trees_at(1)[0]
    wt = WeightedTour(frame, tree, f=8, phi=Fraction(1, 1))
    # whole padded tour -> top-level blocks
    cover = dyadic_cover(0, wt.W, wt.j_top)
    assert all(j == wt.j_top for j, _ in cover)
    assert len(cover) == wt.W >> wt.j_top
    # one full top block -> itself
    assert dyadic_cover(0, 1 << wt.j_top, wt.j_top) == [(wt.j_top, 0)]


def test_dyadic_cover_random_ranges_exact_partition():
    g = Graph(10, tuple((i, i + 1) for i in range(9)) + tuple((i, i + 2) for i in range(8)))
    levels = EdgeLevelAssignment(level=tuple([1] * g.m), h=1, phi=HALF, certified=True)
    frame = EulerFrame(g, levels)
    tree = frame.trees_at(1)[0]
    wt = WeightedTour(frame, tree, f=16, phi=Fraction(1, 1))
    rng = random.Random(8)
    for _ in range(200):
        a = rng.randrange(0, wt.W)
        b = rng.randrange(a + 1, wt.W + 1)
        cover = dyadic_cover(a, b, wt.j_top)
        cur = a
        for j, k in cover:
            lo, hi = block_range(j, k)
            assert lo == cur
            cur = hi
            assert j <= wt.j_top
        assert cur == b
        # anchored count bound: ends contribute < 2(j_top+1), middle at top scale
        non_top = [p for p in cover if p[0] < wt.j_top]
        assert len(non_top) < 2 * (wt.j_top + 1)


def _multigraph(rng, n):
    """Random multigraph on n vertices: a few random components, some
    vertices left isolated, some edges doubled."""
    verts = list(range(n))
    rng.shuffle(verts)
    edges = []
    at = rng.randrange(1, 4)  # the first few vertices stay isolated
    while at < n:
        size = rng.randrange(2, 17)
        comp = verts[at:at + size]
        at += size
        edges += [(comp[rng.randrange(i)], comp[i]) for i in range(1, len(comp))]
        for _ in range(rng.randrange(0, 2 * len(comp))):
            if len(comp) > 1:
                edges.append(tuple(rng.sample(comp, 2)))
        if edges and rng.random() < 0.5:
            edges.append(edges[-1][::-1])
    rng.shuffle(edges)
    return Graph(n, tuple(edges))


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_tree_tour_fields_match_definitions(mode):
    # every TreeTour field against a recomputation from the graph, the
    # levels, T* and the tour alone
    rng = random.Random(12)
    for _ in range(8):
        g = _multigraph(rng, rng.randrange(16, 41))
        hier = build_edge_hierarchy(g, mode=mode)
        frame = EulerFrame(g, hier)
        level = hier.level
        for ell in range(1, hier.h + 1):
            uf = UnionFind(g.n)
            for eid in frame.tstar:
                if level[eid] <= ell:
                    uf.union(*g.edges[eid])
            # a tree's id is the tour position of its first vertex
            tid_of = {}
            for v in sorted(range(g.n), key=lambda x: frame.pos_vertex[x]):
                tid_of.setdefault(uf.find(v), frame.pos_vertex[v])
            trees = frame.trees_at(ell)
            assert set(trees) == set(tid_of.values())
            for tid, tree in trees.items():
                verts = [v for v in range(g.n) if tid_of[uf.find(v)] == tid]
                edges = [e for e in range(g.m)
                         if level[e] <= ell and tid_of[uf.find(g.edges[e][0])] == tid]
                level_edges = [e for e in edges
                               if level[e] == ell and e not in frame.tstar]
                assert tree.level == ell and tree.tree_id == tid
                assert tree.vertex_positions == sorted(frame.pos_vertex[v] for v in verts)
                assert all(frame.tour[p] == ("v", frame.tour[p][1])
                           for p in tree.vertex_positions)
                assert tree.edges == edges
                assert tree.level_edges == level_edges
                assert tree.events == sorted((frame.pos_vertex[x], e)
                                             for e in level_edges for x in g.edges[e])
