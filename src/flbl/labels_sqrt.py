"""The deterministic O~(sqrt(f))-bit edge-fault labeling scheme.

Built on degree-3 graphs: per level, boundary edges of dyadic Euler-tour
blocks are filtered to large gap edges, whose list is spread as
Reed-Solomon code shares across the labels of nearby edges.  A query
recovers adjacencies from stored or reconstructed large-gap lists and
revealed edges, and infers giant components from certified interval
weights when lists are unavailable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from . import codeshares
from .codeshares import CodeShare
from .euler import EulerFrame, WeightedTour, tours_for_level
from .graph import Graph
from .hierarchy import EdgeLevelAssignment
from .labels_simple import (
    EdgeName,
    QueryResult,
    SchemeMeta,
    TreePartition,
    _merge_giants,
    edge_names,
)

POS_BITS = 29
PAR_BITS = 2


def pack_named_edge(a: int, b: int, par: int) -> int:
    if a >= (1 << POS_BITS) or b >= (1 << POS_BITS) or par >= (1 << PAR_BITS):
        raise ValueError("edge name does not fit the field symbol")
    return (par << (2 * POS_BITS)) | (a << POS_BITS) | b


def unpack_named_edge(sym: int) -> EdgeName:
    mask = (1 << POS_BITS) - 1
    return ((sym >> POS_BITS) & mask, sym & mask, sym >> (2 * POS_BITS))


@dataclass
class LGESet:
    """Boundary edges of one dyadic block, with the large-gap subset."""

    scale: int
    block: int
    boundary: list[tuple[int, int, int]]  # (outside pos, inside pos, edge id)
    lge_edges: list[int]                  # edge ids, in boundary order

    @property
    def lge(self) -> int:
        return len(self.lge_edges)


def compute_lge(frame: EulerFrame, wtour: WeightedTour, scale: int, block: int) -> LGESet:
    """Exact large-gap-edge set of one block, per the definition: order
    boundary edges by outside endpoint, keep first, last, and both sides
    of every gap wider than the ball radius."""
    g = frame.graph
    lo, hi = wtour.block_range(scale, block)
    entries = []
    for eid in wtour.level_edges:
        u, v = g.edges[eid]
        cu = wtour.vertex_unit(u)
        cv = wtour.vertex_unit(v)
        bu, bv = cu >> scale, cv >> scale
        if bu == block and bv != block:
            entries.append((frame.pos_vertex[v], frame.pos_vertex[u], eid, cv))
        elif bv == block and bu != block:
            entries.append((frame.pos_vertex[u], frame.pos_vertex[v], eid, cu))
    entries.sort(key=lambda t: (t[0], t[2]))
    k = len(entries)
    is_lge = [False] * k
    if k:
        is_lge[0] = is_lge[-1] = True
        r = wtour.r
        for q in range(k - 1):
            # outside endpoints are weight-1 vertices; unit gap - 1 = distance
            if abs(entries[q + 1][3] - entries[q][3]) - 1 > r:
                is_lge[q] = is_lge[q + 1] = True
    return LGESet(
        scale=scale,
        block=block,
        boundary=[(o, i, e) for (o, i, e, _) in entries],
        lge_edges=[entries[q][2] for q in range(k) if is_lge[q]],
    )


def _lge_all_blocks(frame: EulerFrame, wtour: WeightedTour) -> dict[tuple[int, int], LGESet]:
    """compute_lge for every nonempty block of every scale, in one pass
    over the level edges per scale."""
    g = frame.graph
    units = {}
    for eid in wtour.level_edges:
        for vv in g.edges[eid]:
            if vv not in units:
                units[vv] = wtour.vertex_unit(vv)
    out: dict[tuple[int, int], LGESet] = {}
    for j in range(wtour.j_top + 1):
        per: dict[int, list[tuple[int, int, int, int]]] = {}
        for eid in wtour.level_edges:
            u, v = g.edges[eid]
            bu, bv = units[u] >> j, units[v] >> j
            if bu == bv:
                continue
            per.setdefault(bu, []).append(
                (frame.pos_vertex[v], frame.pos_vertex[u], eid, units[v])
            )
            per.setdefault(bv, []).append(
                (frame.pos_vertex[u], frame.pos_vertex[v], eid, units[u])
            )
        r = wtour.r
        for blk, entries in per.items():
            entries.sort(key=lambda t: (t[0], t[2]))
            k = len(entries)
            is_lge = [False] * k
            is_lge[0] = is_lge[-1] = True
            for q in range(k - 1):
                if abs(entries[q + 1][3] - entries[q][3]) - 1 > r:
                    is_lge[q] = is_lge[q + 1] = True
            out[(j, blk)] = LGESet(
                scale=j,
                block=blk,
                boundary=[(o, i, e) for (o, i, e, _) in entries],
                lge_edges=[entries[q][2] for q in range(k) if is_lge[q]],
            )
    return out


def distribute_shares(lset: LGESet, names: list[EdgeName]) -> dict[int, CodeShare]:
    """Reed-Solomon shares of the large-gap-edge message, one per member;
    any half of them reconstruct the whole list."""
    message = [pack_named_edge(*names[eid]) for eid in lset.lge_edges]
    shares = codeshares.encode(message, d=2)
    return {eid: sh for eid, sh in zip(lset.lge_edges, shares)}


@dataclass
class BlockRecord:
    """lge count of a block, plus the full list when small enough."""

    lge: int
    edges: list[EdgeName] | None  # names carry sorted endpoint positions


@dataclass
class RevealEntry:
    """One level-l edge incident to the ball of the labeled edge."""

    name: EdgeName
    unit_a: int
    unit_b: int
    # (scale, side) -> share; side 0 is the smaller-position endpoint
    shares: dict[tuple[int, int], CodeShare]


@dataclass
class SqrtLevelSection:
    tree_root: int
    span_end: int
    last_vertex: int
    w_real: int
    reveal: list[RevealEntry]
    # tree edges only:
    after_v: tuple[int | None, int | None] = (None, None)
    before_v: tuple[int | None, int | None] = (None, None)
    unit_down: int = 0
    unit_up: int = 0
    # scale -> {block index -> BlockRecord}, for blocks adjacent to or
    # containing each oriented occurrence
    near: dict[int, dict[int, BlockRecord]] = field(default_factory=dict)


@dataclass
class SqrtEdgeLabel:
    pos_u: int
    pos_v: int
    par: int
    is_tree: bool
    level: int = 0
    pos_down: int = 0
    pos_up: int = 0
    sections: dict[int, SqrtLevelSection] = field(default_factory=dict)

    @property
    def name(self) -> EdgeName:
        a, b = sorted((self.pos_u, self.pos_v))
        return (a, b, self.par)


def build_sqrt_labels(
    g: Graph, hier: EdgeLevelAssignment, frame: EulerFrame, f: int
) -> tuple[list[int], list[SqrtEdgeLabel], SchemeMeta]:
    if any(d > 3 for d in g.degrees()):
        raise ValueError("sqrt scheme requires max degree 3; reduce the graph first")
    phi = hier.phi
    names = edge_names(g, frame.pos_vertex)
    vertex_labels = list(frame.pos_vertex)
    labels: list[SqrtEdgeLabel] = []
    for eid in range(g.m):
        u, v = g.edges[eid]
        _, _, k = names[eid]
        lab = SqrtEdgeLabel(
            pos_u=frame.pos_vertex[u], pos_v=frame.pos_vertex[v], par=k,
            is_tree=eid in frame.tstar, level=hier.level[eid],
        )
        if lab.is_tree:
            child = v if frame.parent[v] == u else u
            par_v = frame.parent[child]
            lab.pos_down = frame.pos_oedge[(par_v, child)]
            lab.pos_up = frame.pos_oedge[(child, par_v)]
        labels.append(lab)

    for ell in range(1, hier.h + 1):
        tree_of = frame.tree_assignment(ell)
        edges_here = frame.edges_upto_by_tree(ell)
        wtours = tours_for_level(frame, ell, f, phi)
        for tid, wt in wtours.items():
            if not edges_here.get(tid):
                continue
            tree = wt.tree
            r = wt.r
            # large-gap structure of every block at every scale
            lge_sets = _lge_all_blocks(frame, wt)
            share_of = {
                key: distribute_shares(ls, names)
                for key, ls in lge_sets.items()
            }

            # per-vertex unit index for reveal windows
            unit_of_vertex = {
                vv: wt.vertex_unit(vv)
                for eid2 in wt.level_edges
                for vv in g.edges[eid2]
            }
            events = sorted(
                (unit_of_vertex[vv], eid2)
                for eid2 in wt.level_edges
                for vv in g.edges[eid2]
            )
            event_units = [t[0] for t in events]

            def bundle_for(eid2: int) -> RevealEntry:
                u2, v2 = g.edges[eid2]
                pa, pb = sorted((frame.pos_vertex[u2], frame.pos_vertex[v2]))
                ua = unit_of_vertex[u2] if frame.pos_vertex[u2] == pa else unit_of_vertex[v2]
                ub = unit_of_vertex[v2] if frame.pos_vertex[v2] == pb else unit_of_vertex[u2]
                shares: dict[tuple[int, int], CodeShare] = {}
                for j in range(wt.j_top + 1):
                    for side, unit in ((0, ua), (1, ub)):
                        sh = share_of.get((j, unit >> j), {}).get(eid2)
                        if sh is not None:
                            shares[(j, side)] = sh
                return RevealEntry(name=names[eid2], unit_a=ua, unit_b=ub, shares=shares)

            entry_cache: dict[int, RevealEntry] = {}

            def window_entries(windows: list[tuple[int, int]]) -> list[RevealEntry]:
                ids: set[int] = set()
                for lo, hi in windows:
                    a = bisect_left(event_units, lo)
                    b = bisect_right(event_units, hi)
                    ids.update(eid2 for _, eid2 in events[a:b])
                out = []
                for eid2 in sorted(ids):
                    ent = entry_cache.get(eid2)
                    if ent is None:
                        ent = bundle_for(eid2)
                        entry_cache[eid2] = ent
                    out.append(ent)
                return out

            vert_positions = [p for p in tree.positions if frame.tour[p][0] == "v"]
            span_start, span_end = tree.span

            def near_desc(pos):
                i = bisect_left(vert_positions, pos)
                after = vert_positions[i] if i < len(vert_positions) else None
                before = vert_positions[i - 1] if i > 0 else None
                return after, before

            # per scale: (scale, block count, block -> record), one record
            # per block, shared by the labels that store it, as entry_cache
            # shares the reveal entries
            scales = [(j, wt.blocks_at(j), {}) for j in range(wt.j_top + 1)]

            def block_record(j: int, blk: int) -> BlockRecord:
                ls = lge_sets.get((j, blk))
                if ls is None:
                    return BlockRecord(lge=0, edges=[])
                edges = None
                if ls.lge <= 4 * r:
                    edges = [names[eid2] for eid2 in ls.lge_edges]
                return BlockRecord(lge=ls.lge, edges=edges)

            def near_records(cu: int, cv: int) -> dict[int, dict[int, BlockRecord]]:
                """scale -> {block -> record} for the blocks containing or
                next to either unit; new dicts per label."""
                near: dict[int, dict[int, BlockRecord]] = {}
                for j, nblk, recs in scales:
                    per = near[j] = {}
                    for unit in (cu, cv):
                        cont = unit >> j
                        for blk in range(max(cont - 1, 0), min(cont + 2, nblk)):
                            rec = recs.get(blk)
                            if rec is None:
                                rec = recs[blk] = block_record(j, blk)
                            per[blk] = rec
                return near

            for eid in edges_here[tid]:
                u, v = g.edges[eid]
                lab = labels[eid]
                if lab.is_tree:
                    if lab.pos_down not in tree.local_of:
                        # the edge exists at this level but is in this tree
                        raise AssertionError("tree edge not on its level tour")
                    cu = wt.unit_of_pos(lab.pos_down)
                    cv = wt.unit_of_pos(lab.pos_up)
                    windows = [wt.ball_units(lab.pos_down, r), wt.ball_units(lab.pos_up, r)]
                    a_d, b_d = near_desc(lab.pos_down)
                    a_u, b_u = near_desc(lab.pos_up)
                    sec = SqrtLevelSection(
                        tree_root=tid, span_end=span_end,
                        last_vertex=vert_positions[-1], w_real=wt.W_real,
                        reveal=window_entries(windows),
                        after_v=(a_d, a_u), before_v=(b_d, b_u),
                        unit_down=cu, unit_up=cv, near=near_records(cu, cv),
                    )
                else:
                    windows = [
                        wt.ball_units(frame.pos_vertex[u], r),
                        wt.ball_units(frame.pos_vertex[v], r),
                    ]
                    sec = SqrtLevelSection(
                        tree_root=tid, span_end=span_end,
                        last_vertex=vert_positions[-1], w_real=wt.W_real,
                        reveal=window_entries(windows),
                    )
                lab.sections[ell] = sec
    meta = SchemeMeta(
        n=g.n, aux_n=g.n, m=g.m, f=f, phi=phi, h=hier.h,
        comp_roots=[frame.pos_vertex[r_] for r_ in frame.comp_roots],
        par_bits=max((nm[2] for nm in names), default=0).bit_length(),
        certified=hier.certified,
    )
    return vertex_labels, labels, meta


# ---------------------------------------------------------------------------
# query


def _radius(meta: SchemeMeta) -> tuple[int, int]:
    num = meta.f * meta.phi.denominator
    den = meta.phi.numerator
    r = 0
    while r * r * den < num:
        r += 1
    r = max(r, 1)
    j = 0
    while (1 << j) * den < num:
        j += 1
    return r, j


def query_sqrt(
    records: dict[int, SqrtEdgeLabel],
    pos_s: int | None,
    pos_t: int | None,
    meta: SchemeMeta,
    keep_levels: bool = False,
) -> QueryResult:
    if len(records) > meta.f:
        raise ValueError(f"fault set of size {len(records)} exceeds f={meta.f}")
    r, j_max = _radius(meta)
    fault_names = {lab.name for lab in records.values()}
    recorded: list[tuple[int, int, int]] = []
    groups: dict[int, TreePartition] = {}
    case3_fired: list[tuple] = []
    snapshots: dict[tuple[int, int], TreePartition] = {}
    for ell in range(1, meta.h + 1):
        groups = {}
        tree_faults: dict[int, list] = {}
        for eid, lab in records.items():
            if lab.is_tree and ell in lab.sections:
                sec = lab.sections[ell]
                tree_faults.setdefault(sec.tree_root, []).append((eid, lab, sec))
        for tree_root, faults in tree_faults.items():
            sec0 = faults[0][2]
            groups[tree_root] = TreePartition(
                tree_root, sec0.span_end, sec0.last_vertex, faults
            )
        for (px, py, route_eid) in recorded:
            lab = records[route_eid]
            sec = lab.sections.get(ell)
            if sec is None:
                continue
            grp = groups.get(sec.tree_root)
            if grp is not None:
                grp.unite(px, py)
        new_records: list[tuple[int, int, int]] = []
        for tree_root, grp in groups.items():
            faults = tree_faults[tree_root]
            route = faults[0][0]
            w_real = faults[0][2].w_real
            W = 1 << (max(w_real, 1) - 1).bit_length()
            j_top = min(j_max, W.bit_length() - 1)

            # revealed edges of this tree, from every fault's level section
            reveal: dict[EdgeName, RevealEntry] = {}
            for eid, lab in records.items():
                sec = lab.sections.get(ell)
                if sec is not None and sec.tree_root == tree_root:
                    for ent in sec.reveal:
                        reveal[ent.name] = ent
            # stored block records of this tree
            block_recs: dict[tuple[int, int], BlockRecord] = {}
            for (eid, lab, sec) in faults:
                for j, per in sec.near.items():
                    for blk, rec in per.items():
                        block_recs[(j, blk)] = rec

            # pool of known surviving level-l edges
            pool: dict[EdgeName, tuple[int, int]] = {}
            for nm, ent in reveal.items():
                pool[nm] = (nm[0], nm[1])

            # intervals in unit space; iterate J in J(T, F)
            bound_units: list[tuple[int, int]] = []  # aligned with grp.bounds
            for (pos, fi, o) in grp.bounds:
                sec = faults[fi][2]
                bound_units.append(sec.unit_down if o == 0 else sec.unit_up)
            marked: set[int] = set()
            kq = len(grp.qs)
            for i in range(kq + 1):
                c0 = bound_units[i - 1] if i > 0 else 0
                c1 = bound_units[i] if i < kq else W
                if c0 >= c1:
                    continue
                for (j, blk) in dyadic_cover_arith(c0, c1, j_top):
                    rec = block_recs.get((j, blk))
                    if rec is None:
                        continue  # unstored piece; interval weight covers it
                    if rec.edges is not None:
                        for nm in rec.edges:
                            pool.setdefault(nm, (nm[0], nm[1]))
                    else:
                        got = _block_shares(reveal.values(), j, blk)
                        need = (rec.lge + 1) // 2
                        if len(got) >= need:
                            syms = codeshares.decode(list(got.values()), rec.lge)
                            for sym in syms:
                                nm = unpack_named_edge(sym)
                                pool.setdefault(nm, (nm[0], nm[1]))
                        else:
                            marked.add(i)
                            case3_fired.append((ell, tree_root, j, blk, rec.lge))

            for nm, (pa, pb) in pool.items():
                if nm in fault_names:
                    continue
                if grp.unite(pa, pb):
                    new_records.append((pa, pb, route))

            # R4': certified interval weights plus case-3 marks
            weight_ev: dict[int, int] = {}
            for i in range(kq + 1):
                c0 = bound_units[i - 1] if i > 0 else 0
                c1 = bound_units[i] if i < kq else W
                wgt = max(0, min(c1, w_real) - min(c0, w_real))
                if wgt:
                    root_i = grp.uf.find(i)
                    weight_ev[root_i] = weight_ev.get(root_i, 0) + wgt
            extra = {grp.uf.find(i) for i in marked}
            _merge_giants(grp, weight_ev, meta, new_records, route, extra_giants=extra)
        recorded.extend(new_records)
        if keep_levels:
            snapshots.update({(ell, tr): grp for tr, grp in groups.items()})
    res = QueryResult(meta=meta, top=groups)
    res.case3_fired = case3_fired
    if keep_levels:
        res.levels = snapshots
    return res


def _block_shares(entries, j: int, blk: int) -> dict[int, CodeShare]:
    """index -> share of block `blk` at scale `j`, from the revealed
    entries whose endpoint unit on that side lies in the block; an entry's
    shares are read only when one of its units does."""
    got: dict[int, CodeShare] = {}
    for ent in entries:
        for side, unit in ((0, ent.unit_a), (1, ent.unit_b)):
            if unit >> j == blk:
                sh = ent.shares.get((j, side))
                if sh is not None:
                    got[sh.index] = sh
    return got


def dyadic_cover_arith(a: int, b: int, j_top: int) -> list[tuple[int, int]]:
    """Canonical cover of unit range [a, b) by blocks of scales <= j_top."""
    out = []
    cur = a
    while cur < b:
        j = j_top
        while j > 0 and ((cur & ((1 << j) - 1)) != 0 or cur + (1 << j) > b):
            j -= 1
        out.append((j, cur >> j))
        cur += 1 << j
    return out

