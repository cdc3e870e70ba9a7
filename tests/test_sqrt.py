import copy
import itertools
import random
from fractions import Fraction

import pytest

from flbl import labelfile as LF
from flbl.build import build_scheme, to_label_file
from flbl.euler import EulerFrame, WeightedTour, radius_scale
from flbl.graph import Graph, UnionFind, reduce_degree3
from flbl.hierarchy import EdgeLevelAssignment, build_edge_hierarchy
from flbl.labels_sqrt import (
    BlockRecord,
    LGESet,
    build_sqrt_labels,
    compute_lge,
    distribute_shares,
    query_sqrt,
)
from flbl.labels_simple import NameTable
from flbl import codeshares
from support import ball_edge, ball_element, block_range, oracle_classes, tours_for_level
from test_acceptance import random_connected_sparse
from test_golden import build_case

HALF = Fraction(1, 2)


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


def crafted_chord_graph(k=160, a=37):
    """Caterpillar spine with one leaf per spine vertex; leaves chorded by
    the multiplicative pattern i -> a*i mod k, max degree 3."""
    edges = []
    for i in range(k - 1):
        edges.append((i, i + 1))
    for i in range(k):
        edges.append((i, k + i))
    seen = set()
    for i in range(1, k):
        j = (a * i) % k
        if j == i:
            continue
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        edges.append((k + i, k + j))
    return Graph(2 * k, tuple(edges))


def block_lge(lge_sets, j, blk):
    """A block's LGESet from compute_lge's dict; an empty one for a block
    with no boundary edge, which the dict leaves out."""
    return lge_sets.get((j, blk)) or LGESet(scale=j, block=blk, boundary=[], lge_edges=[])


def gap_pattern_lge(units, r):
    """Reference implementation of the large-gap rule on outside units."""
    k = len(units)
    flag = [False] * k
    if k:
        flag[0] = flag[-1] = True
        for q in range(k - 1):
            if units[q + 1] - units[q] - 1 > r:
                flag[q] = flag[q + 1] = True
    return flag


def test_paper_figure_gap_pattern():
    # 12 boundary edges; large gaps between pairs (4,5), (7,8), (8,9)
    # (1-based) give LGE = {1, 4, 5, 7, 8, 9, 12}
    r = 2
    deltas = [1, 1, 1, 4, 1, 1, 4, 4, 1, 1, 1]
    units = [0]
    for d in deltas:
        units.append(units[-1] + d)
    flags = gap_pattern_lge(units, r)
    got = {q + 1 for q, fl in enumerate(flags) if fl}
    assert got == {1, 4, 5, 7, 8, 9, 12}


def test_compute_lge_matches_naive_ball_oracle():
    rng = random.Random(3)
    for _ in range(8):
        g0 = random_connected(rng, rng.randrange(5, 11), 0.5)
        red = reduce_degree3(g0)
        g = red.reduced
        hier = build_edge_hierarchy(g, mode="auto")
        frame = EulerFrame(g, hier)
        f = 2
        for ell in range(1, hier.h + 1):
            for tid, wt in tours_for_level(frame, ell, f, hier.phi).items():
                lge_sets = compute_lge(frame, wt)
                for j in range(wt.j_top + 1):
                    for blk in range(wt.blocks_at(j)):
                        ls = block_lge(lge_sets, j, blk)
                        # naive: sort boundary by outside position, apply
                        # the definition with the exact Ball oracle
                        naive = []
                        for eid in wt.tree.level_edges:
                            u, v = g.edges[eid]
                            bu = wt.vertex_unit(u) >> j
                            bv = wt.vertex_unit(v) >> j
                            if (bu == blk) != (bv == blk):
                                out = v if bu == blk else u
                                naive.append((frame.pos_vertex[out], eid, out))
                        naive.sort()
                        assert [e for _, e, _ in naive] == [
                            e for _, _, e in ls.boundary
                        ]
                        k = len(naive)
                        flags = [False] * k
                        if k:
                            flags[0] = flags[-1] = True
                            for q in range(k - 1):
                                ball = ball_element(
                                    wt, frame.pos_vertex[naive[q][2]], wt.r
                                )
                                if naive[q + 1][2] not in ball:
                                    flags[q] = flags[q + 1] = True
                        want = [naive[q][1] for q in range(k) if flags[q]]
                        assert ls.lge_edges == want


def test_distribute_shares_small_cases():
    g0 = random_connected(random.Random(4), 8, 0.5)
    red = reduce_degree3(g0)
    g = red.reduced
    hier = build_edge_hierarchy(g, mode="auto")
    frame = EulerFrame(g, hier)
    from flbl.labels_simple import edge_names

    names = edge_names(g, frame.pos_vertex)
    table = NameTable(max(1, (3 * g.n).bit_length()), 2)
    symbols = [table.pack(nm) for nm in names]
    field = codeshares.field_for(table.width)
    seen_small = False
    for ell in range(1, hier.h + 1):
        for tid, wt in tours_for_level(frame, ell, 2, hier.phi).items():
            lge_sets = compute_lge(frame, wt)
            for j in range(wt.j_top + 1):
                for blk in range(wt.blocks_at(j)):
                    ls = block_lge(lge_sets, j, blk)
                    shares = distribute_shares(ls, symbols, field)
                    assert set(shares) == set(ls.lge_edges)
                    if ls.lge == 0:
                        assert shares == {}
                    if ls.lge == 2:
                        seen_small = True
                        msg = [symbols[e] for e in ls.lge_edges]
                        for sh in shares.values():
                            assert codeshares.decode([sh], 2, field) == msg
                            assert table.of(msg) == [names[e] for e in ls.lge_edges]
    assert seen_small


def test_distribute_shares_every_half_subset():
    # synthetic 8-member large-gap list: every 4-subset reconstructs
    names = [(2 * i, 2 * i + 1, 0) for i in range(8)]
    table = NameTable(5, 1)
    field = codeshares.field_for(table.width)
    ls = LGESet(scale=0, block=0, boundary=[(0, 0, i) for i in range(8)],
                lge_edges=list(range(8)))
    shares = distribute_shares(ls, [table.pack(nm) for nm in names], field)
    for subset in itertools.combinations(shares.values(), 4):
        assert table.of(codeshares.decode(list(subset), 8, field)) == names


def test_pack_unpack_named_edge():
    # a name packs into one field of 2·pos + par bits, LSB first, and the
    # table splits it back; a part wider than its field is rejected
    table = NameTable(4, 1)
    packed = table.pack((5, 9, 1))
    assert packed == 5 | 9 << 4 | 1 << 8 and packed < 1 << table.width
    assert table[packed] == (5, 9, 1)
    for nm in ((1 << 4, 0, 0), (0, 1 << 4, 0), (0, 0, 2)):
        with pytest.raises(ValueError):
            table.pack(nm)


def test_degree_guard():
    g = Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    hier = build_edge_hierarchy(g, mode="auto")
    frame = EulerFrame(g, hier)
    with pytest.raises(ValueError):
        build_sqrt_labels(g, hier, frame, 1)


def test_no_faults_same_as_simple():
    g = random_connected(random.Random(6), 9, 0.4)
    res = build_scheme(g, LF.SCHEME_SQRT, 2)
    q = query_sqrt({}, None, None, res.meta)
    assert q.component_count() == 1


def test_exhaustive_small_sweep():
    rng = random.Random(9)
    for _ in range(8):
        g = random_connected(rng, rng.randrange(4, 9), 0.45)
        res = build_scheme(g, LF.SCHEME_SQRT, 2)
        vl, labels, meta = res.vertex_labels, res.edge_labels, res.meta
        for k in range(0, 3):
            for F in itertools.combinations(range(g.m), k):
                cid, cnt = oracle_classes(g, list(F))
                q = query_sqrt({e: labels[e] for e in F}, None, None, meta)
                for s in range(g.n):
                    for t in range(s + 1, g.n):
                        assert q.connected(vl[s], vl[t]) == (cid[s] == cid[t])


def test_per_level_partitions_match_oracle():
    # parts of P_l equal components of G_{<=l} - F on faulted trees, as
    # test_simple checks for scheme 1 through the same level loop
    rng = random.Random(5)
    for _ in range(6):
        g0 = random_connected(rng, rng.randrange(4, 8), 0.45)
        g = reduce_degree3(g0).reduced
        hier = build_edge_hierarchy(g, mode="auto")
        frame = EulerFrame(g, hier)
        vl, labels, meta = build_sqrt_labels(g, hier, frame, 2)
        for F in itertools.combinations(range(g.m), 2):
            res = query_sqrt(
                {e: labels[e] for e in F}, None, None, meta, keep_levels=True
            )
            assert res.levels or not any(frame.tstar & set(F))
            for (ell, tree_root), grp in res.levels.items():
                uf = UnionFind(g.n)
                for e in range(g.m):
                    if hier.level[e] <= ell and e not in F:
                        uf.union(*g.edges[e])
                tree_of = frame.tree_assignment(ell)
                verts = [v for v in range(g.n) if tree_of[v] == tree_root]
                part = {v: grp.uf.find(grp.locate(frame.pos_vertex[v])) for v in verts}
                for a in verts:
                    for b in verts:
                        assert (part[a] == part[b]) == (uf.find(a) == uf.find(b))


def test_case3_fires_and_matches_oracle():
    g = crafted_chord_graph()
    assert max(g.degrees()) <= 3
    f = 8
    hier = EdgeLevelAssignment(
        level=tuple([1] * g.m), h=1, phi=HALF, certified=False
    )
    frame = EulerFrame(g, hier)
    vl, labels, meta = build_sqrt_labels(g, hier, frame, f)
    F = [30, 90]
    res = query_sqrt({e: labels[e] for e in F}, None, None, meta)
    assert res.case3_fired, "crafted instance must exercise case 3"
    # every firing has lge > 4r
    r, _ = radius_scale(meta.f, meta.phi)
    for (_ell, _tree, _j, _blk, lge) in res.case3_fired:
        assert lge > 4 * r
    cid, cnt = oracle_classes(g, F)
    for s in range(0, g.n, 3):
        for t in range(s + 1, g.n, 3):
            assert res.connected(vl[s], vl[t]) == (cid[s] == cid[t])


def block_chain_graph(rng, nblk, nlong):
    """A path of 4·nblk vertices (edge ids 0..4·nblk - 2, so T* is the
    path), a chord (4k, 4k + 3) closing each block of four, and `nlong`
    seeded chords between the blocks' free middle vertices.  Cutting the
    path between blocks leaves parts that only the long chords join."""
    n = 4 * nblk
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(4 * k, 4 * k + 3) for k in range(nblk)]
    ends = rng.sample([4 * k + o for k in range(nblk) for o in (1, 2)], 2 * nlong)
    edges += [tuple(sorted(ends[2 * i:2 * i + 2])) for i in range(nlong)]
    return Graph(n, tuple(edges))


def _answers_right(labels, vl, meta, g, F):
    q = query_sqrt({e: labels[e] for e in F}, None, None, meta)
    cid, cnt = oracle_classes(g, F)
    return q.component_count() == cnt and all(
        q.connected(vl[s], vl[t]) == (cid[s] == cid[t])
        for s in range(g.n) for t in range(s + 1, g.n))


def test_block_lists_unite_what_reveal_misses():
    # One level of tour weight 64 with f = 64 (r = 12, f/phi = 128), so no
    # part is giant and R4 never fires.  A long chord whose ends lie more
    # than r units inside their parts is revealed by no fault; only the
    # stored list of a block in its part's dyadic cover names it.  Every
    # answer equals the oracle's, and with every stored list emptied some
    # answers do not, so the case depends on the block-list unites.
    g = block_chain_graph(random.Random(4), 30, 2)
    hier = EdgeLevelAssignment(level=tuple([1] * g.m), h=1, phi=HALF, certified=False)
    vl, labels, meta = build_sqrt_labels(g, hier, EulerFrame(g, hier), 64)
    assert labels[0].sections[1].w_real <= meta.f / meta.phi
    emptied = copy.deepcopy(labels)
    for lab in emptied:
        for sec in lab.sections.values():
            for per in sec.near.values():
                for blk, rec in per.items():
                    if rec.edges is not None:
                        per[blk] = BlockRecord(lge=rec.lge, edges=[])
    cuts = [4 * k + 3 for k in range(29)]  # the path edges between blocks
    rng = random.Random(81)
    missed = 0
    for _ in range(60):
        F = rng.sample(cuts, rng.randint(1, 3))
        assert _answers_right(labels, vl, meta, g, F), F
        missed += not _answers_right(emptied, vl, meta, g, F)
    assert missed == 9


def _stored_blocks(labels):
    """Per (level, tree root): the block records its tree-edge labels
    store, keyed (scale, block), and the share indices its distinct reveal
    entries hold, keyed by the (scale, block) each share belongs to."""
    recs, held, seen = {}, {}, set()
    for lab in labels:
        for ell, sec in lab.sections.items():
            key = (ell, sec.tree_root)
            per_tree = recs.setdefault(key, {})
            for j, per in sec.near.items():
                for blk, rec in per.items():
                    per_tree[(j, blk)] = rec
            got = held.setdefault(key, {})
            for ent in sec.reveal:
                if id(ent) in seen:
                    continue
                seen.add(id(ent))
                for (j, side), sh in ent.shares.items():
                    unit = ent.unit_b if side else ent.unit_a
                    got.setdefault((j, unit >> j), []).append(sh.index)
    return recs, held


def _withheld_builds():
    """(edge labels, meta) of seeded scheme-2 builds."""
    for res in (build_case("s2-sparse80-withheld"), build_case("s2-sparse40"),
                build_scheme(random_connected_sparse(random.Random(2), 80, 320), 2, 8,
                             phi_mode="heuristic")):
        yield res.edge_labels, res.meta
    # one level: 10 blocks hold more than 4r large-gap edges, 11 exactly 4r
    g = crafted_chord_graph()
    hier = EdgeLevelAssignment(level=tuple([1] * g.m), h=1, phi=HALF, certified=False)
    _, labels, meta = build_sqrt_labels(g, hier, EulerFrame(g, hier), 8)
    yield labels, meta


def test_shares_exactly_where_list_withheld():
    # a share belongs to a block whose record withholds its list, such a
    # block has each of its lge shares in exactly one reveal entry, and a
    # record withholds its list exactly when it has more than 4r edges
    withheld = stored = 0
    for labels, meta in _withheld_builds():
        r, _ = radius_scale(meta.f, meta.phi)
        recs, held = _stored_blocks(labels)
        for key, per_tree in recs.items():
            for blk_key in held[key]:
                assert per_tree[blk_key].edges is None, (key, blk_key)
            for blk_key, rec in per_tree.items():
                assert (rec.edges is None) == (rec.lge > 4 * r), (key, blk_key)
                if rec.edges is None:
                    withheld += 1
                    assert sorted(held[key].get(blk_key, [])) == list(range(1, rec.lge + 1))
                else:
                    stored += rec.lge > 0
    # 4 + 0 + 7 + 10 withheld blocks over the four builds
    assert withheld == 21 and stored


def test_case3_volume_bound():
    # whenever case 3 fires, the component holding the block has level
    # volume strictly above f/phi (oracle-computed)
    g = crafted_chord_graph()
    f = 8
    hier = EdgeLevelAssignment(
        level=tuple([1] * g.m), h=1, phi=HALF, certified=False
    )
    frame = EulerFrame(g, hier)
    vl, labels, meta = build_sqrt_labels(g, hier, frame, f)
    F = [30, 90]
    res = query_sqrt({e: labels[e] for e in F}, None, None, meta)
    assert res.case3_fired
    wts = tours_for_level(frame, 1, f, hier.phi)
    cid, _ = oracle_classes(g, F)
    for (ell, tree_root, j, blk, lge) in res.case3_fired:
        wt = wts[tree_root]
        lo, hi = block_range(j, blk)
        inside = [
            frame.tour[p][1] for p in wt.tree.vertex_positions
            if wt.wt[wt.tree.local_of[p]] and lo <= wt.unit_of_pos(p) < hi
        ]
        assert inside
        comp = cid[inside[0]]
        vol = 0
        for e in range(g.m):
            if hier.level[e] != ell:
                continue
            for x in g.edges[e]:
                if cid[x] == comp:
                    vol += 1
        assert vol * meta.phi.numerator > meta.f * meta.phi.denominator


def test_find_edge_lemma_property():
    # for every adjacency between a block and an interval J' of the
    # fault-split tour, the first connecting surviving edge (by outside
    # position) is a large gap edge or revealed by F
    rng = random.Random(11)
    for _ in range(6):
        g0 = random_connected(rng, rng.randrange(5, 9), 0.5)
        red = reduce_degree3(g0)
        g = red.reduced
        hier = build_edge_hierarchy(g, mode="auto")
        frame = EulerFrame(g, hier)
        f = 2
        vl, labels, meta = build_sqrt_labels(g, hier, frame, f)
        tree_edge_ids = sorted(frame.tstar)
        for F in [rng.sample(tree_edge_ids, 2) for _ in range(6)]:
            for ell in range(1, hier.h + 1):
                wts = tours_for_level(frame, ell, f, hier.phi)
                for tid, wt in wts.items():
                    faults_here = [
                        e for e in F
                        if hier.level[e] <= ell
                        and frame.tree_assignment(ell)[g.edges[e][0]] == tid
                        and e in frame.tstar
                    ]
                    if not faults_here:
                        continue
                    reveal_balls: set[int] = set()
                    for e in faults_here:
                        reveal_balls |= ball_edge(wt, e, wt.r)
                    # fault-split interval boundaries on this tour
                    qs = []
                    for e in faults_here:
                        u, v = g.edges[e]
                        c = v if frame.parent[v] == u else u
                        p = frame.parent[c]
                        qs.append(frame.pos_oedge[(p, c)])
                        qs.append(frame.pos_oedge[(c, p)])
                    qs.sort()

                    def interval_of(pos):
                        from bisect import bisect_left
                        return bisect_left(qs, pos)

                    lge_sets = compute_lge(frame, wt)
                    for j in range(wt.j_top + 1):
                        for blk in range(wt.blocks_at(j)):
                            ls = block_lge(lge_sets, j, blk)
                            surv = [
                                (opos, eid)
                                for (opos, ipos, eid) in ls.boundary
                                if eid not in F
                            ]
                            by_interval: dict[int, int] = {}
                            for opos, eid in surv:
                                ivl = interval_of(opos)
                                if ivl not in by_interval:
                                    by_interval[ivl] = eid
                            for ivl, beta0 in by_interval.items():
                                u, v = g.edges[beta0]
                                revealed = (
                                    u in reveal_balls or v in reveal_balls
                                )
                                assert beta0 in ls.lge_edges or revealed


def test_bit_length_scaling_constant():
    # measured bits stay within c * sqrt(f/phi) * log(f/phi) * log^2 n
    rng = random.Random(13)
    g0 = random_connected(rng, 24, 0.18)
    worst_ratio = 0.0
    import math

    for f in (1, 2, 4, 8):
        res = build_scheme(g0, LF.SCHEME_SQRT, f)
        lf = to_label_file(res)
        n3 = res.meta.aux_n
        fp = 2 * f  # f / phi with phi = 1/2
        bound = math.sqrt(fp) * max(math.log2(fp), 1) * math.log2(n3) ** 2
        worst_ratio = max(worst_ratio, max(lf.edge_bits) / bound)
    assert worst_ratio < 600  # fitted constant across the corpus


def test_oversized_fault_set_rejected():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    res = build_scheme(g, LF.SCHEME_SQRT, 1)
    with pytest.raises(ValueError):
        query_sqrt({0: res.edge_labels[0], 1: res.edge_labels[1]}, None, None, res.meta)
