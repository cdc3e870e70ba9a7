import itertools
import random

import pytest

from flbl.graph import Graph, UnionFind
from flbl.labels_rand import (
    BfsForest,
    RandEdgeLabel,
    SingletonSeed,
    _Regions,
    _bits,
    build_rand_long,
    build_rand_short,
    query_rand_long,
    query_rand_short,
    rank_of,
    sample_bit,
    short_regime_ok,
)
from support import ScanBfsForest, oracle_classes


def random_graph(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, tuple(edges))


# sample distinguisher


def test_sample_full_threshold():
    w = 5
    for x in range(1 << w):
        assert sample_bit(1, 1 << w, x, w) == 1


def test_sample_zero_threshold():
    w = 5
    for x in range(1 << w):
        assert sample_bit(1, 0, x, w) == 0


def test_sample_direct_values():
    # w=3, a=3, t=4: x=1 -> 3 < 4 -> 1; x=2 -> 6 >= 4 -> 0
    assert sample_bit(3, 4, 1, 3) == 1
    assert sample_bit(3, 4, 2, 3) == 0


def test_sample_rejects_even_a():
    with pytest.raises(ValueError):
        sample_bit(2, 1, 0, 3)


# singleton detector


def test_singleton_identity_on_single_uid():
    seed = SingletonSeed.generate(12, n=64)
    for x in (1, 3, 77, 4001):
        assert seed.singleton(seed.uid(x)) == x


def test_singleton_zero_aggregate():
    seed = SingletonSeed.generate(5, n=64)
    assert seed.singleton(0) is None


def test_singleton_true_singletons_all_seeds():
    rng = random.Random(1)
    for s in range(50):
        seed = SingletonSeed.generate(s, n=32)
        for _ in range(20):
            x = rng.randrange(1, 1 << seed.w)
            assert seed.singleton(seed.uid(x)) == x


def test_singleton_false_positive_rate():
    rng = random.Random(2)
    seed = SingletonSeed.generate(777, n=64)
    fp = 0
    trials = 20000
    for _ in range(trials):
        k = rng.choice((2, 3))
        xs = rng.sample(range(1, 1 << seed.w), k)
        agg = 0
        for x in xs:
            agg ^= seed.uid(x)
        got = seed.singleton(agg)
        if got is not None and got not in xs:
            fp += 1
        elif got is not None:
            fp += 1  # multi-aggregate reported as a singleton at all
    assert fp / trials <= 1e-3


def test_sig_matches_sample_bit_reference():
    rng = random.Random(3)
    for s in range(30):
        seed = SingletonSeed.generate(s, n=rng.randrange(2, 5000))
        for _ in range(40):
            x = rng.randrange(1 << seed.w)
            want = 0
            for i, (a, t) in enumerate(seed.pairs):
                want |= sample_bit(a, t, x, seed.w) << i
            assert seed.sig(x) == want


def test_singleton_seed_rejects_even_multiplier():
    with pytest.raises(ValueError):
        SingletonSeed(w=4, pairs=[(3, 5), (6, 1)])


# spanning forest


def random_multigraph(rng, n):
    """Several components, parallel edges and vertices with no edge."""
    verts = [v for v in range(n) if rng.random() < 0.8]
    k = rng.randrange(1, 4)
    edges = []
    for comp in (verts[i::k] for i in range(k)):
        for _ in range(rng.randrange(len(comp), 3 * len(comp) + 1)):
            if len(comp) >= 2:
                edges.append(tuple(rng.sample(comp, 2)))
    rng.shuffle(edges)
    return Graph(n, tuple(edges))


@pytest.mark.parametrize("seed", range(8))
def test_bfs_forest_matches_scan_reference(seed):
    rng = random.Random(seed)
    for n in (0, 1, *(rng.randrange(2, 60) for _ in range(10))):
        g = random_multigraph(rng, n)
        got, want = BfsForest(g), ScanBfsForest(g)
        for attr in ("parent", "parent_edge", "order", "pre", "size",
                     "tree_edges", "comp_roots", "comp_pre_starts"):
            assert getattr(got, attr) == getattr(want, attr), (n, attr)


# long scheme


def test_root_aggregate_zero():
    rng = random.Random(3)
    g = random_graph(rng, 12, 0.4)
    forest = BfsForest(g)
    vl, labs, meta = build_rand_long(g, 3, seed=5)
    # recompute sk0 over each component: XOR over all vertex stars is zero
    for lab in labs:
        if lab.is_tree and lab.lo == 0 and lab.hi == g.n - 1:
            assert lab.sk0 == 0


def test_subtree_aggregates_match_naive():
    rng = random.Random(4)
    g = random_graph(rng, 10, 0.5)
    forest = BfsForest(g)
    vl, labs, meta = build_rand_long(g, 2, seed=9)
    from flbl.labels_rand import _edge_bits

    nbits = meta.sk0_bits
    for eid in range(g.m):
        if not labs[eid].is_tree:
            continue
        lo, hi = labs[eid].lo, labs[eid].hi
        inside = {v for v in range(g.n) if lo <= forest.pre[v] <= hi}
        want = 0
        for e2 in range(g.m):
            if e2 in forest.tree_edges:
                continue
            u, v = g.edges[e2]
            if (u in inside) != (v in inside):
                want ^= _edge_bits(meta.seed, "sk0", e2, nbits)
        assert labs[eid].sk0 == want


def test_label_bits_exact():
    g = random_graph(random.Random(5), 20, 0.3)
    f = 6
    vl, labs, meta = build_rand_long(g, f, seed=1)
    from flbl import labelfile as LF

    lf = LF.make_label_file(LF.SCHEME_RAND_LONG, meta, vl, labs)
    expected = f + (meta.c + 2) * _bits(g.n)
    assert all(b == expected for b in lf.edge_bits)


def test_long_query_barbell_bridge():
    # two triangles joined by a bridge
    g = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)))
    vl, labs, meta = build_rand_long(g, 2, seed=3)
    res = query_rand_long({6: labs[6]}, meta)
    assert res.component_count() == 2
    assert not res.connected(vl[0], vl[5])
    assert res.connected(vl[0], vl[2])


def test_long_query_no_faults():
    g = Graph(5, ((0, 1), (1, 2), (3, 4)))
    vl, labs, meta = build_rand_long(g, 2, seed=3)
    res = query_rand_long({}, meta)
    assert res.component_count() == 2
    assert res.connected(vl[0], vl[2])
    assert not res.connected(vl[0], vl[4])


def test_long_scheme_oracle_sweep():
    rng = random.Random(6)
    bad = 0
    trials = 0
    for _ in range(40):
        g = random_graph(rng, rng.randrange(5, 40), rng.uniform(0.1, 0.5))
        if g.m == 0:
            continue
        f = rng.randrange(1, 8)
        vl, labs, meta = build_rand_long(g, f, seed=rng.randrange(10**6))
        for _ in range(25):
            F = rng.sample(range(g.m), min(rng.randrange(0, f + 1), g.m))
            cid, cnt = oracle_classes(g, F)
            res = query_rand_long({e: labs[e] for e in F}, meta)
            trials += 1
            ok = res.component_count() == cnt
            for s in range(0, g.n, 2):
                for t in range(s + 1, g.n, 2):
                    got = res.connected(vl[s], vl[t])
                    want = cid[s] == cid[t]
                    if got != want:
                        ok = False
                        # one-sided: disconnected never reported connected
                        assert not (got and not want)
            if not ok:
                bad += 1
    assert bad <= max(1, trials // 1000)


def test_exact_zero_identity_on_component_unions():
    # sk0_{E-F} of any union of oracle components is exactly zero
    rng = random.Random(7)
    from flbl.labels_rand import _Regions, _region_aggregates

    for _ in range(20):
        g = random_graph(rng, rng.randrange(5, 20), 0.4)
        if g.m < 3:
            continue
        f = 4
        vl, labs, meta = build_rand_long(g, f, seed=rng.randrange(10**6))
        F = rng.sample(range(g.m), min(rng.randrange(1, f + 1), g.m))
        records = {e: labs[e] for e in F}
        regions = _Regions(records, meta.comp_roots)
        agg = _region_aggregates(records, regions, "sk0")
        cid, cnt = oracle_classes(g, F)
        forest = BfsForest(g)
        # group regions by oracle component of any member vertex
        by_comp: dict[int, int] = {}
        for v in range(g.n):
            rid = regions.region_of(forest.pre[v])
            if rid in agg:
                key = cid[v]
                by_comp[key] = by_comp.get(key, 0) ^ agg[rid]
        # each region appears once per component, XOR over full component
        seen_pairs = set()
        acc: dict[int, int] = {}
        for v in range(g.n):
            rid = regions.region_of(forest.pre[v])
            if rid not in agg or (cid[v], rid) in seen_pairs:
                continue
            seen_pairs.add((cid[v], rid))
            acc[cid[v]] = acc.get(cid[v], 0) ^ agg[rid]
        for comp, x in acc.items():
            assert x == 0


# fault-split regions


def _scan_region_of(regions, pre):
    """Reference: the narrowest fault range holding pre, by a scan of all
    ranges, else the root region of pre's component."""
    best = None
    for i, (a, b) in enumerate(regions.ranges):
        if a <= pre <= b and (best is None or b - a < regions.ranges[best][1] - regions.ranges[best][0]):
            best = i
    return regions.k + regions.comp_of_pre(pre) if best is None else best


def _scan_parent_region(regions, i):
    """Reference: the narrowest other fault range holding range i, by a
    scan of all ranges, else the root region of its component."""
    a, b = regions.ranges[i]
    best = None
    for j, (a2, b2) in enumerate(regions.ranges):
        if j != i and a2 <= a and b <= b2 and \
                (best is None or b2 - a2 < regions.ranges[best][1] - regions.ranges[best][0]):
            best = j
    return regions.k + regions.comp_of_pre(a) if best is None else best


@pytest.mark.parametrize("seed", range(4))
def test_region_index_matches_linear_scan(seed):
    rng = random.Random(40 + seed)
    for _ in range(25):
        g = random_multigraph(rng, rng.randrange(1, 120))
        vl, labs, meta = build_rand_long(g, 1, seed=rng.randrange(10**6))
        tree = [e for e in range(g.m) if labs[e].is_tree]
        other = [e for e in range(g.m) if not labs[e].is_tree]
        for _ in range(8):
            # from no tree fault to all of them: deep nesting and many regions
            F = rng.sample(tree, rng.randrange(len(tree) + 1)) + \
                rng.sample(other, rng.randrange(min(len(other), 5) + 1))
            regions = _Regions({e: labs[e] for e in F}, meta.comp_roots)
            for pre in range(g.n):
                assert regions.region_of(pre) == _scan_region_of(regions, pre)
            for i in range(regions.k):
                assert regions.parent[i] == _scan_parent_region(regions, i)


@pytest.mark.parametrize("ranges", [
    [(5, 3)],
    [(2, 6), (2, 6)],
    [(0, 9), (2, 6), (2, 6)],
    [(1, 4), (3, 7)],
    [(0, 9), (3, 7), (5, 8)],
    [(1, 4), (2, 3), (4, 6)],
], ids=["reversed", "duplicate", "nested-duplicate", "crossing",
        "nested-crossing", "crossing-after-a-closed-range"])
def test_region_index_rejects_malformed_ranges(ranges):
    records = {eid: RandEdgeLabel(is_tree=True, lo=lo, hi=hi, sk0=0)
               for eid, (lo, hi) in enumerate(ranges)}
    with pytest.raises(ValueError):
        _Regions(records, [0])


# short scheme


def test_short_regime_guard():
    g = random_graph(random.Random(8), 16, 0.5)
    with pytest.raises(ValueError):
        build_rand_short(g, 3, seed=1)
    assert not short_regime_ok(16, 3)


def test_rank_distribution():
    rng = random.Random(9)
    counts = {}
    for eid in range(4000):
        j = rank_of(123, 0, eid, jcols=12)
        counts[j] = counts.get(j, 0) + 1
    # geometric: about half rank 1, quarter rank 2
    assert 0.4 < counts[1] / 4000 < 0.6
    assert 0.15 < counts[2] / 4000 < 0.35


def test_short_fully_faulted():
    n = 12
    g = Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))
    f = g.m
    if not short_regime_ok(n, f):
        pytest.skip("complete graph too small for the short regime")
    vl, labs, meta = build_rand_short(g, f, seed=5)
    F = list(range(g.m))
    res = query_rand_short({e: labs[e] for e in F}, meta)
    assert res.component_count() == n


def test_short_scheme_oracle_sweep():
    rng = random.Random(10)
    bad = 0
    trials = 0
    for _ in range(12):
        n = rng.randrange(16, 40)
        g = random_graph(rng, n, rng.uniform(0.4, 0.7))
        need = 2 * _bits(n) ** 2
        if g.m < need:
            continue
        f = min(g.m, need + rng.randrange(0, 10))
        vl, labs, meta = build_rand_short(g, f, seed=rng.randrange(10**6))
        for _ in range(8):
            F = rng.sample(range(g.m), rng.randrange(1, f + 1))
            cid, cnt = oracle_classes(g, F)
            res = query_rand_short({e: labs[e] for e in F}, meta)
            trials += 1
            ok = res.component_count() == cnt
            for s in range(0, n, 2):
                for t in range(s + 1, n, 2):
                    if res.connected(vl[s], vl[t]) != (cid[s] == cid[t]):
                        ok = False
            if not ok:
                bad += 1
    assert trials > 0
    assert bad <= max(1, trials // 100)


def test_single_surviving_edge_merges_parts():
    # a chorded cycle with one faulted tree edge: surviving edges merge
    n = 32
    edges = tuple((i, (i + 1) % n) for i in range(n))
    extra = tuple((i, (i + 5) % n) for i in range(n))
    g = Graph(n, edges + extra)
    f = 2 * _bits(n) ** 2
    assert short_regime_ok(n, f) and g.m >= f
    vl, labs, meta = build_rand_short(g, f, seed=11)
    forest = BfsForest(g)
    tree = sorted(forest.tree_edges)
    F = [tree[3]]
    cid, cnt = oracle_classes(g, F)
    res = query_rand_short({e: labs[e] for e in F}, meta)
    assert res.component_count() == cnt == 1


def test_xor_homomorphism_on_vertex_sets():
    # sk0 over the symmetric difference equals the XOR of the two sk0s
    rng = random.Random(20)
    g = random_graph(rng, 14, 0.5)
    forest = BfsForest(g)
    vl, labs, meta = build_rand_long(g, 3, seed=77)
    from flbl.labels_rand import _edge_bits

    nbits = meta.sk0_bits

    def sk0_of(vset):
        out = 0
        for eid in range(g.m):
            if eid in forest.tree_edges:
                continue
            u, v = g.edges[eid]
            if (u in vset) != (v in vset):
                out ^= _edge_bits(meta.seed, "sk0", eid, nbits)
        return out

    for _ in range(30):
        A = {v for v in range(g.n) if rng.random() < 0.5}
        B = {v for v in range(g.n) if rng.random() < 0.5}
        assert sk0_of(A ^ B) == sk0_of(A) ^ sk0_of(B)


def test_cut_sketch_validity():
    # a non-bottom singleton return is a surviving crossing edge in almost
    # all trials
    rng = random.Random(21)
    good = 0
    returned = 0
    for trial in range(60):
        n = 32
        edges = set()
        es = []
        for v in range(1, n):
            u = rng.randrange(v)
            es.append((u, v))
            edges.add((u, v))
        while len(es) < 80:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key not in edges:
                edges.add(key)
                es.append(key)
        g = Graph(n, tuple(es))
        f = 2 * _bits(n) ** 2
        vl, labs, meta = build_rand_short(g, f, seed=1000 + trial)
        sig = meta.sig_seed()
        forest = BfsForest(g)
        F = rng.sample(sorted(forest.tree_edges), 12)
        cid, cnt = oracle_classes(g, F)
        from flbl.labels_rand import _Regions, _region_aggregates

        records = {e: labs[e] for e in F}
        regions = _Regions(records, meta.comp_roots)
        aggm = _region_aggregates(records, regions, "skmat")
        cell = sig.uid_bits
        cellmask = (1 << cell) - 1
        nb = _bits(n)
        pre_inv = {forest.pre[v]: v for v in range(n)}
        fault_pairs = {tuple(sorted(g.edges[e])) for e in F}
        for rid, mat in aggm.items():
            for i in range(meta.B):
                for j in range(meta.jcols):
                    agg = (mat >> ((i * meta.jcols + j) * cell)) & cellmask
                    x = sig.singleton(agg)
                    if x is None:
                        continue
                    returned += 1
                    pa, pb = x >> nb, x & ((1 << nb) - 1)
                    if pa in pre_inv and pb in pre_inv:
                        u, v = pre_inv[pa], pre_inv[pb]
                        pair = tuple(sorted((u, v)))
                        ra = regions.region_of(pa)
                        rb = regions.region_of(pb)
                        crosses_rid = (ra == rid) != (rb == rid)
                        if pair not in fault_pairs and crosses_rid and \
                                any(tuple(sorted(e)) == pair for e in g.edges):
                            good += 1
    assert returned > 50
    assert good / returned >= 0.95


def _wrong_pairs(g, vl, labs, meta, F):
    """Pairs (and the component count) answered differently from the
    union-find oracle after failing F."""
    cid, cnt = oracle_classes(g, F)
    res = query_rand_short({e: labs[e] for e in F}, meta)
    wrong = res.component_count() != cnt
    for s, t in itertools.combinations(range(g.n), 2):
        wrong += res.connected(vl[s], vl[t]) != (cid[s] == cid[t])
    return wrong


def test_short_two_vertices_parallel_edges():
    # at n = 2 sk0 is one bit, so two surviving parallel edges can cancel
    # in it; the Boruvka rounds must still merge the two vertices
    g = Graph(2, ((0, 1), (0, 1), (0, 1)))
    for seed in range(6):
        vl, labs, meta = build_rand_short(g, 2, seed=seed)
        for k in range(3):
            for F in itertools.combinations(range(g.m), k):
                assert _wrong_pairs(g, vl, labs, meta, F) == 0, (seed, F)


def test_short_small_multigraph_sweep():
    # every fault set of size <= 3 on small multigraphs with parallel
    # edges, isolated vertices and several components
    rng = random.Random(50)
    wrong = checked = 0
    for _ in range(30):
        n = rng.randrange(2, 9)
        g = random_multigraph(rng, n)
        f = 2 * _bits(n) ** 2
        for seed in range(4):
            vl, labs, meta = build_rand_short(g, f, seed=seed)
            for k in range(min(3, f) + 1):
                for F in itertools.combinations(range(g.m), k):
                    wrong += _wrong_pairs(g, vl, labs, meta, F)
                    checked += 1
    assert checked > 10000
    assert wrong == 0
