import bisect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbl import labelfile as LF
from flbl import labels_simple
from flbl.bits import BitReader
from flbl.build import build_scheme, to_label_file
from flbl.euler import EulerFrame
from flbl.graph import Graph, UnionFind
from flbl.hierarchy import build_edge_hierarchy
from flbl.labels_simple import (
    _segment_list,
    build_simple_labels,
    cap_edges,
    query_simple,
    volume_exceeds,
)
from support import oracle_classes, pooled_simple_tree_step
from test_golden import build_case


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
            dec = LF.decode_simple_edge(BitReader(lf.edge_payloads[eid]), wd, res.meta)
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


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_segment_list_memo_keys_on_event_slice(data):
    # two ranges that cut the same event slice, with different lo: the
    # second is a memo hit, and it is still the list of its own range
    npos = data.draw(st.integers(2, 30))
    names, events = [], []
    for eid in range(data.draw(st.integers(0, 25))):
        a = data.draw(st.integers(0, npos - 2))
        b = data.draw(st.integers(a + 1, min(a + 2, npos - 1)) | st.integers(a + 1, npos - 1))
        names.append((a, b, eid))
        events += [(a, eid), (b, eid)]
    events.sort()
    ev_pos, ev_name = [p for p, _ in events], [names[e] for _, e in events]
    lo = data.draw(st.integers(-1, npos))
    # every lo2 in [ev_pos[i - 1], ev_pos[i]) leaves the same events at or below it
    i = bisect.bisect_right(ev_pos, lo)
    lo2 = data.draw(st.integers(ev_pos[i - 1] if i else -1,
                                ev_pos[i] - 1 if i < len(ev_pos) else npos))
    hi = data.draw(st.integers(max(lo, lo2), npos + 1))
    cap = data.draw(st.integers(1, 8))
    memo = {}
    first = _segment_list(ev_pos, ev_name, lo, hi, cap, memo)
    second = _segment_list(ev_pos, ev_name, lo2, hi, cap, memo)
    assert second is first and len(memo) == 1
    for x in (lo, lo2):
        assert (first.entries, first.truncated) == _segment_list_reference(
            events, x, hi, cap, names)


@pytest.mark.parametrize("case", ["s1-cubic60", "s1-cubic200-auto", "s1-multi30",
                                  "s1-exact-n14"])
def test_memoised_build_equals_unmemoised(monkeypatch, case):
    # the build shares one list per event slice of a tree; with the memo
    # ignored every range gets a list of its own, and the labels are equal
    shared = build_case(case)
    segment_list = labels_simple._segment_list
    monkeypatch.setattr(labels_simple, "_segment_list",
                        lambda *args, memo=None, **kw: segment_list(*args, **kw))
    alone = build_case(case)
    assert [repr(lab) for lab in shared.edge_labels] == [repr(lab) for lab in alone.edge_labels]

    def lists(res):
        return [seg for lab in res.edge_labels for sec in lab.sections.values()
                for seg in sec.segments]
    assert len({id(seg) for seg in lists(shared)}) < len({id(seg) for seg in lists(alone)})
    assert len({id(seg) for seg in lists(alone)}) == len(lists(alone))


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


def _halves_first_complete(rng, n):
    """K_n whose edge list starts with the path 0, 1, ..., n - 1 (so the
    one-level spanning tree is that path), then the chords inside each half
    and last the chords across, each group in a seeded order.  A segment
    list then fills with chords inside its half before any chord across."""
    half = n // 2
    path = [(i, i + 1) for i in range(n - 1)]
    chords = [(u, v) for u in range(n) for v in range(u + 2, n)]
    inner = [e for e in chords if (e[0] < half) == (e[1] < half)]
    cross = [e for e in chords if (e[0] < half) != (e[1] < half)]
    rng.shuffle(inner)
    rng.shuffle(cross)
    return Graph(n, tuple(path + inner + cross))


def test_r4_merges_giants_where_lists_truncate(monkeypatch):
    # R4 coverage: with f = 1-2 every segment list at a middle fault holds
    # only chords inside one half, so no R3 unite joins the halves and only
    # the volume merge of R4 does.  Answers must equal the union-find
    # oracle, and R4 must join parts at least once.  (On random cubic
    # graphs at these f, R4 joined no parts in any query tried.)
    merges = 0
    merge_giants = labels_simple._merge_giants

    def counting(grp, *args):
        nonlocal merges
        before = len(grp.parts())
        merge_giants(grp, *args)
        merges += before - len(grp.parts())

    monkeypatch.setattr(labels_simple, "_merge_giants", counting)
    for seed in range(6):
        g = _halves_first_complete(random.Random(seed), 10 + seed)
        for f in (1, 2):
            vl, labels, meta = build(g, f)
            assert meta.h == 1 and meta.certified
            assert any(seg.truncated for lab in labels for sec in lab.sections.values()
                       for seg in sec.segments)
            tree = [e for e, lab in enumerate(labels) if lab.is_tree]
            fault_sets = [(e,) for e in range(g.m)]
            if f == 2:
                fault_sets += itertools.combinations(tree, 2)
            for F in fault_sets:
                cid, cnt = oracle_classes(g, list(F))
                res = query_simple({e: labels[e] for e in F}, None, None, meta)
                assert res.component_count() == cnt, (seed, f, F)
                for s in range(g.n):
                    for t in range(s + 1, g.n):
                        assert res.connected(vl[s], vl[t]) == (cid[s] == cid[t])
    assert merges > 0


def _r3_cases():
    """(name, vertex labels, edge labels, meta) of two golden scheme-1
    builds and of a build whose segment lists truncate (f = 1, as in the
    R4 gate)."""
    for case in ("s1-cubic200-auto", "s1-multi30"):
        res = build_case(case)
        yield case, res.vertex_labels, res.edge_labels, res.meta
    vl, labels, meta = build(_halves_first_complete(random.Random(3), 13), 1)
    yield "halves13-f1", vl, labels, meta


def _fault_sets(labels, meta, count, seed):
    rng = random.Random(seed)
    tree = [e for e, lab in enumerate(labels) if lab.is_tree]
    for i in range(count):
        # every other set is tree edges only, so that trees hold several faults
        ids = tree if i % 2 else range(len(labels))
        yield rng.sample(ids, rng.randint(1, min(meta.f, len(ids))))


def _answers(res, vl):
    return res.component_count(), [res.connected(a, b) for a in vl for b in vl]


def _set_partitions(res):
    return {key: {frozenset(p) for p in grp.parts().values()}
            for key, grp in res.levels.items()}


def _query_r4_inputs(monkeypatch, records, meta, step):
    """The query with `step` as the scheme-1 tree step, and per R4 call
    the tree and its volume evidence keyed by the intervals of each part."""
    merge_giants = labels_simple._merge_giants
    seen = []

    def recording(grp, volume, *args):
        parts = grp.parts()
        seen.append((grp.tree_root, {frozenset(parts[r]): c for r, c in volume.items()}))
        merge_giants(grp, volume, *args)

    with monkeypatch.context() as mp:
        mp.setattr(labels_simple, "_simple_tree_step", step)
        mp.setattr(labels_simple, "_merge_giants", recording)
        res = query_simple(records, None, None, meta, keep_levels=True)
    return res, seen


def test_r3_step_equals_pooled_reference(monkeypatch):
    # the one-fault pool and the R4 counts from the R3 bisects give, at
    # every level, the partition and the R4 evidence of the step that pools
    # every list of every fault and bisects again for its evidence
    complete = fallback = 0
    for case, vl, labels, meta in _r3_cases():
        for F in _fault_sets(labels, meta, 40, 7):
            records = {e: labels[e] for e in F}
            ref, ref_r4 = _query_r4_inputs(monkeypatch, records, meta, pooled_simple_tree_step)
            got, got_r4 = _query_r4_inputs(monkeypatch, records, meta,
                                           labels_simple._simple_tree_step)
            assert got_r4 == ref_r4, (case, F)
            assert _set_partitions(got) == _set_partitions(ref), (case, F)
            assert _answers(got, vl) == _answers(ref, vl), (case, F)
            for grp in got.levels.values():
                if any(not any(seg.truncated for seg in sec.segments)
                       for (_, _, sec) in grp.faults):
                    complete += 1
                else:
                    fallback += 1
    assert complete > 0 and fallback > 0


def test_r3_answers_ignore_fault_order():
    # the pool comes from the first complete fault met in record order;
    # any order gives the same answers
    for case, vl, labels, meta in _r3_cases():
        rng = random.Random(11)
        for F in _fault_sets(labels, meta, 15, 13):
            want = _answers(query_simple({e: labels[e] for e in F}, None, None, meta), vl)
            for _ in range(3):
                rng.shuffle(F)
                res = query_simple({e: labels[e] for e in F}, None, None, meta)
                assert _answers(res, vl) == want, (case, F)


def test_r3_unites_each_interval_pair_once(monkeypatch):
    # per tree, R3 calls union at most once per distinct pair of
    # intervals that a non-fault pool name joins
    step = labels_simple._simple_tree_step
    trees = []  # per tree: [R3 union calls, distinct non-fault interval pairs]

    def counting_step(records, ell, grp):
        pool, evidence = step(records, ell, grp)
        faults = {lab.name for lab in records.values() if not lab.is_tree}
        pairs = {(grp.locate(a), grp.locate(b)) for (a, b, k) in pool
                 if (a, b, k) not in faults and grp.locate(a) != grp.locate(b)}
        tally = [0, len(pairs)]
        trees.append(tally)
        union = grp.uf.union

        def counted(x, y):
            tally[0] += 1
            return union(x, y)

        def done(ends):
            del grp.uf.union  # R4 unions are not counted
            return evidence(ends)

        grp.uf.union = counted
        return pool, done

    monkeypatch.setattr(labels_simple, "_simple_tree_step", counting_step)
    res = build_case("s1-cubic200-auto")
    for F in _fault_sets(res.edge_labels, res.meta, 20, 17):
        query_simple({e: res.edge_labels[e] for e in F}, None, None, res.meta)
    assert trees and all(calls <= pairs for calls, pairs in trees)
    assert sum(calls for calls, _ in trees) > 0


# A random cubic graph on 22 vertices whose auto hierarchy is not
# certified: edges 11, 17 and 30 are the three edges that leave the
# triangle {1, 13, 18}, behind a top-level separator that is not
# 1/2-expanding.
G22_CUBIC = Graph(22, (
    (6, 12), (14, 15), (20, 5), (12, 17), (6, 10), (7, 8), (10, 9), (3, 17), (19, 12),
    (4, 0), (6, 9), (11, 18), (15, 16), (5, 14), (21, 7), (20, 2), (8, 16), (13, 7),
    (14, 11), (19, 11), (1, 13), (9, 21), (0, 3), (18, 13), (8, 21), (16, 10), (19, 5),
    (2, 0), (15, 4), (3, 4), (2, 1), (1, 18), (17, 20),
))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the heuristic hierarchy misses "
                   "a cut that is not 1/2-expanding, and scheme 1 answers wrong")
def test_uncertified_cut_off_triangle_answers_right():
    g = G22_CUBIC
    faults = [11, 17, 30]
    vl, labels, meta = build(g, 3)
    cid, cnt = oracle_classes(g, faults)
    assert cnt == 2 and cid[1] != cid[0]
    res = query_simple({e: labels[e] for e in faults}, None, None, meta)
    assert (res.connected(vl[1], vl[0]), res.component_count()) == (cid[1] == cid[0], cnt)
