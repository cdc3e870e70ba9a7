import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbl import labelfile as LF
from flbl.build import build_scheme, to_label_file
from flbl.euler import EulerFrame
from flbl.graph import FaultSet, Graph, UnionFind, oracle_components
from flbl.hierarchy import build_edge_hierarchy
from flbl.labels_simple import (
    _segment_list,
    build_simple_labels,
    cap_edges,
    query_simple,
    volume_exceeds,
)


def random_connected(rng, n, p):
    while True:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.append((u, v))
        uf = UnionFind(n)
        for u, v in edges:
            uf.union(u, v)
        if len(uf.groups()) == 1:
            return Graph(n, tuple(edges))


def oracle_classes(g, F):
    comps = oracle_components(g, FaultSet.of(F, g))
    cid = {}
    for i, c in enumerate(comps):
        for v in c:
            cid[v] = i
    return cid, len(comps)


def build(g, f):
    hier = build_edge_hierarchy(g, mode="auto")
    frame = EulerFrame(g, hier)
    return build_simple_labels(g, hier, frame, f)


def test_nontree_label_is_two_positions_only():
    # non-tree edges carry just the two endpoint tour positions
    g = Graph(3, ((0, 1), (1, 2), (0, 2)))
    res = build_scheme(g, LF.SCHEME_SIMPLE, 1)
    lf = to_label_file(res)
    wd = LF.Widths.of(res.meta)
    nontree = [
        eid for eid, lab in enumerate(res.edge_labels) if not lab.is_tree
    ]
    assert nontree
    for eid in nontree:
        assert lf.edge_bits[eid] == 2 * wd.pos


def test_single_edge_graph_empty_segments():
    g = Graph(2, ((0, 1),))
    vl, labels, meta = build(g, 1)
    lab = labels[0]
    assert lab.is_tree
    sec = lab.sections[1]
    # X and Z segments around the only edge are vertex-empty
    assert sec.after_v[0] is not None  # Y holds the child vertex
    for F in ([], [0]):
        cid, cnt = oracle_classes(g, F)
        res = query_simple({e: labels[e] for e in F}, None, None, meta)
        assert res.component_count() == cnt
        assert res.connected(vl[0], vl[1]) == (cid[0] == cid[1])


def test_p4_cap_is_three():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    vl, labels, meta = build(g, 1)
    assert cap_edges(1, meta.phi) == 3
    for lab in labels:
        for sec in lab.sections.values():
            for seg in sec.segments:
                assert len(seg.entries) <= 3


def test_no_faults_query():
    g = Graph(5, ((0, 1), (1, 2), (3, 4)))
    vl, labels, meta = build(g, 2)
    res = query_simple({}, None, None, meta)
    assert res.component_count() == 2
    assert res.connected(vl[0], vl[2])
    assert not res.connected(vl[0], vl[3])


def test_triangle_pendant_single_fault():
    g = Graph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))
    vl, labels, meta = build(g, 1)
    res = query_simple({3: labels[3]}, None, None, meta)
    assert not res.connected(vl[0], vl[3])
    assert res.connected(vl[0], vl[2])


def test_exhaustive_small_sweep():
    rng = random.Random(77)
    for _ in range(12):
        g = random_connected(rng, rng.randrange(4, 10), 0.4)
        vl, labels, meta = build(g, 2)
        for k in range(0, 3):
            for F in itertools.combinations(range(g.m), k):
                cid, cnt = oracle_classes(g, list(F))
                res = query_simple({e: labels[e] for e in F}, None, None, meta)
                assert res.component_count() == cnt
                for s in range(g.n):
                    for t in range(s + 1, g.n):
                        assert res.connected(vl[s], vl[t]) == (cid[s] == cid[t])


def test_per_level_partitions_match_oracle():
    # parts of P_l equal components of G_{<=l} - F on faulted trees
    rng = random.Random(5)
    for _ in range(8):
        g = random_connected(rng, rng.randrange(5, 11), 0.45)
        hier = build_edge_hierarchy(g, mode="auto")
        frame = EulerFrame(g, hier)
        vl, labels, meta = build_simple_labels(g, hier, frame, 2)
        for F in itertools.combinations(range(g.m), 2):
            res = query_simple(
                {e: labels[e] for e in F}, None, None, meta, keep_levels=True
            )
            for (ell, tree_root), grp in res.levels.items():
                keep = [
                    e for e in range(g.m)
                    if hier.level[e] <= ell and e not in F
                ]
                uf = UnionFind(g.n)
                for e in keep:
                    u, v = g.edges[e]
                    uf.union(u, v)
                tree_of = frame.tree_assignment(ell)
                verts = [v for v in range(g.n) if tree_of[v] == tree_root]
                for a in verts:
                    for b in verts:
                        same_part = grp.uf.find(
                            grp.locate(frame.pos_vertex[a])
                        ) == grp.uf.find(grp.locate(frame.pos_vertex[b]))
                        assert same_part == (uf.find(a) == uf.find(b))


def test_expansion_lemma_instantiation():
    # two parts with revealed volume above f/phi share one component
    rng = random.Random(6)
    for _ in range(6):
        g = random_connected(rng, rng.randrange(6, 12), 0.5)
        hier = build_edge_hierarchy(g, mode="auto")
        frame = EulerFrame(g, hier)
        vl, labels, meta = build_simple_labels(g, hier, frame, 2)
        for F in itertools.combinations(range(g.m), 2):
            cid, _ = oracle_classes(g, list(F))
            # oracle form of the lemma: any two level components with
            # volume above f/phi at any level coincide
            for ell in range(1, hier.h + 1):
                keep = [
                    e for e in range(g.m)
                    if hier.level[e] <= ell and e not in F
                ]
                uf = UnionFind(g.n)
                for e in keep:
                    u, v = g.edges[e]
                    uf.union(u, v)
                tree_of = frame.tree_assignment(ell)
                vol: dict[tuple, int] = {}
                for e in range(g.m):
                    if hier.level[e] != ell:
                        continue
                    for x in g.edges[e]:
                        key = (tree_of[x], uf.find(x))
                        vol[key] = vol.get(key, 0) + 1
                by_tree: dict[int, list] = {}
                for (tr, root), c in vol.items():
                    if volume_exceeds(c, meta.f, meta.phi):
                        by_tree.setdefault(tr, []).append(root)
                for roots in by_tree.values():
                    assert len(set(roots)) <= 1


def test_query_reads_only_labels(monkeypatch):
    g = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)))
    vl, labels, meta = build(g, 2)
    want_cid, want_cnt = oracle_classes(g, [0, 6])
    recs = {0: labels[0], 6: labels[6]}

    def poisoned(*a, **k):
        raise AssertionError("query touched the graph")

    # any attempt to build or inspect a Graph during the query blows up
    monkeypatch.setattr(Graph, "__post_init__", poisoned)
    monkeypatch.setattr(Graph, "induced", poisoned)
    monkeypatch.setattr("flbl.graph.oracle_components", poisoned)
    res = query_simple(recs, None, None, meta)
    assert res.component_count() == want_cnt
    for s in range(g.n):
        for t in range(s + 1, g.n):
            assert res.connected(vl[s], vl[t]) == (want_cid[s] == want_cid[t])


def test_serializer_round_trip_random():
    rng = random.Random(8)
    for _ in range(5):
        g = random_connected(rng, rng.randrange(4, 12), 0.4)
        res = build_scheme(g, LF.SCHEME_SIMPLE, 2)
        lf = to_label_file(res)
        wd = LF.Widths.of(res.meta)
        for eid in range(g.m):
            dec = LF.decode_simple_edge(lf.edge_payloads[eid], wd, res.meta)
            assert dec == res.edge_labels[eid]


def _segment_list_reference(events, lo, hi, cap, names):
    """First-incidence capped list by a scan of every event with a seen set."""
    out, seen = [], set()
    for pos, eid in events:
        if not lo < pos < hi or eid in seen:
            continue
        seen.add(eid)
        if len(out) == cap:
            return out, True
        out.append(names[eid])
    return out, False


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_segment_list_matches_seen_set_scan(data):
    # few positions, so many edges share an endpoint as at a tour vertex
    npos = data.draw(st.integers(2, 30))
    names, events = [], []
    for eid in range(data.draw(st.integers(0, 25))):
        a = data.draw(st.integers(0, npos - 2))
        # short edges too, whose two events are often next to each other
        b = data.draw(st.integers(a + 1, min(a + 2, npos - 1)) | st.integers(a + 1, npos - 1))
        names.append((a, b, eid))
        events += [(a, eid), (b, eid)]
    events.sort()
    lo = data.draw(st.integers(-1, npos))
    hi = data.draw(st.integers(lo, npos + 1))
    cap = data.draw(st.integers(1, 8))
    got = _segment_list([p for p, _ in events], [names[e] for _, e in events], lo, hi, cap)
    assert (got.entries, got.truncated) == _segment_list_reference(events, lo, hi, cap, names)


def test_segment_list_adjacent_event_pairs():
    # each edge's two events are adjacent, so cap edges fill 2 cap events
    # and only the next edge's event shows that the list is truncated
    names = [(2 * e, 2 * e + 1, 0) for e in range(4)]
    ev_pos, ev_name = list(range(8)), [names[p // 2] for p in range(8)]
    for cap in (1, 2, 3):
        got = _segment_list(ev_pos, ev_name, -1, 8, cap)
        assert got.entries == names[:cap] and got.truncated
    got = _segment_list(ev_pos, ev_name, -1, 8, 4)
    assert got.entries == names and not got.truncated


def test_oversized_fault_set_rejected():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    vl, labels, meta = build(g, 1)
    with pytest.raises(ValueError):
        query_simple({0: labels[0], 1: labels[1]}, None, None, meta)
