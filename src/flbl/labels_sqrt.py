"""The deterministic O~(sqrt(f))-bit edge-fault labeling scheme.

Built on degree-3 graphs: per level, boundary edges of dyadic Euler-tour
blocks are filtered to large gap edges.  A block stores a short list
whole; a longer one (more than 4r edges) is spread as Reed-Solomon code
shares across the labels of nearby edges.  A query
recovers adjacencies from stored or reconstructed large-gap lists and
revealed edges, and infers giant components from certified interval
weights when lists are unavailable.

The build walks the trees of `EulerFrame.trees_at` that hold an edge: a
`WeightedTour` per tree gives units, the large-gap sets and the reveal
windows, which bisect the units of the tree's `events`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial

from . import codeshares
from .codeshares import CodeShare, Field
from .euler import EulerFrame, WeightedTour, dyadic_cover, padded_scales, radius_scale
from .graph import Graph
from .hierarchy import EdgeLevelAssignment
from .labels_simple import (
    EdgeName,
    NameTable,
    QueryResult,
    SchemeMeta,
    SimpleEdgeLabel,
    TreePartition,
    edge_label,
    edge_names,
    query_levels,
    scheme_meta,
    vertex_bounds,
)

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


def compute_lge(frame: EulerFrame, wtour: WeightedTour) -> dict[tuple[int, int], LGESet]:
    """The large-gap-edge set of every nonempty block of every scale,
    keyed (scale, block), in one pass over the level edges per scale.

    A block's boundary edges are ordered by outside endpoint (ties by edge
    id); the first, the last, and both sides of every gap wider than the
    ball radius are large-gap edges.  A block absent from the dict has no
    boundary edge."""
    g = frame.graph
    units = wtour.units
    out: dict[tuple[int, int], LGESet] = {}
    for j in range(wtour.j_top + 1):
        per: dict[int, list[tuple[int, int, int, int]]] = {}
        for eid in wtour.tree.level_edges:
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
                # outside endpoints are weight-1 vertices; unit gap - 1 = distance
                if abs(entries[q + 1][3] - entries[q][3]) - 1 > r:
                    is_lge[q] = is_lge[q + 1] = True
            out[(j, blk)] = LGESet(
                scale=j,
                block=blk,
                boundary=[(o, i, e) for (o, i, e, _) in entries],
                lge_edges=[entries[q][2] for q in range(k) if is_lge[q]],
            )
    return out


def distribute_shares(lset: LGESet, symbols: list[int], field: Field) -> dict[int, CodeShare]:
    """Reed-Solomon shares of the large-gap-edge message, one per member;
    any half of them reconstruct the whole list.  `symbols[eid]` is the
    packed name of edge eid (`NameTable.pack`)."""
    message = [symbols[eid] for eid in lset.lge_edges]
    shares = codeshares.encode(message, field)
    return {eid: sh for eid, sh in zip(lset.lge_edges, shares)}


def withholds_list(lset: LGESet, r: int) -> bool:
    """Whether a block's record gives its lge count only (more than 4r
    large-gap edges), so that a query rebuilds the list from its shares.
    The build makes shares for exactly these blocks."""
    return lset.lge > 4 * r


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


def near_blocks(sec: SqrtLevelSection, j_max: int):
    """(scale, sorted ids of the blocks containing or next to either
    oriented occurrence) for every scale a tree-edge section stores."""
    W, j_top = padded_scales(sec.w_real, j_max)
    a, b = sorted((sec.unit_down, sec.unit_up))
    for j in range(j_top + 1):
        ca, cb, nblk = a >> j, b >> j, W >> j
        yield j, [*range(max(ca - 1, 0), min(ca + 2, nblk)),
                  *range(max(cb - 1, ca + 2), min(cb + 2, nblk))]


class SqrtEdgeLabel(SimpleEdgeLabel):
    """A scheme-1 edge label whose sections are SqrtLevelSection."""


def build_sqrt_labels(
    g: Graph, hier: EdgeLevelAssignment, frame: EulerFrame, f: int
) -> tuple[list[int], list[SqrtEdgeLabel], SchemeMeta]:
    """Vertex labels, edge labels and header facts of scheme 2 on a graph
    of max degree 3.  Every edge of level <= l gets a section per level:
    the reveal entries of the level edges in the balls around its ends
    and, for a tree edge, its vertex bounds, units and near-block
    records."""
    if any(d > 3 for d in g.degrees()):
        raise ValueError("sqrt scheme requires max degree 3; reduce the graph first")
    phi = hier.phi
    names = edge_names(g, frame.pos_vertex)
    meta = scheme_meta(g, hier, frame, f, names)
    table = meta.name_table()
    symbols = [table.pack(nm) for nm in names]
    field = meta.field
    labels = [edge_label(SqrtEdgeLabel, frame, names, eid, hier.level[eid])
              for eid in range(g.m)]

    for ell in range(1, hier.h + 1):
        for tid, tree in frame.trees_at(ell).items():
            if not tree.edges:
                continue
            wt = WeightedTour(frame, tree, f, phi)
            r = wt.r
            # large-gap structure of every block at every scale; only a
            # block whose record withholds its list needs shares
            lge_sets = compute_lge(frame, wt)
            share_of = {
                key: distribute_shares(ls, symbols, field)
                for key, ls in lge_sets.items() if withholds_list(ls, r)
            }
            for ls in lge_sets.values():
                meta.share_index_bits = max(meta.share_index_bits, ls.lge.bit_length())

            def bundle_for(eid2: int) -> RevealEntry:
                # units rise along the tour, so the smaller one is the
                # smaller-position endpoint's
                ua, ub = sorted(wt.units[vv] for vv in g.edges[eid2])
                shares: dict[tuple[int, int], CodeShare] = {}
                for j in range(wt.j_top + 1):
                    for side, unit in ((0, ua), (1, ub)):
                        sh = share_of.get((j, unit >> j), {}).get(eid2)
                        if sh is not None:
                            shares[(j, side)] = sh
                return RevealEntry(name=names[eid2], unit_a=ua, unit_b=ub, shares=shares)

            entry_cache: dict[int, RevealEntry] = {}
            # units rise along the tour, so the events' units ascend too
            event_units = [wt.unit_of_pos(p) for p, _ in tree.events]

            def window_entries(windows: list[tuple[int, int]]) -> list[RevealEntry]:
                ids: set[int] = set()
                for lo, hi in windows:
                    a = bisect_left(event_units, lo)
                    b = bisect_right(event_units, hi)
                    ids.update(eid2 for _, eid2 in tree.events[a:b])
                out = []
                for eid2 in sorted(ids):
                    ent = entry_cache.get(eid2)
                    if ent is None:
                        ent = bundle_for(eid2)
                        entry_cache[eid2] = ent
                    out.append(ent)
                return out

            span_end = tree.span[1]

            def block_record(j: int, blk: int) -> BlockRecord:
                ls = lge_sets.get((j, blk))
                if ls is None:
                    return BlockRecord(lge=0, edges=[])
                edges = None if withholds_list(ls, r) else [names[e] for e in ls.lge_edges]
                return BlockRecord(lge=ls.lge, edges=edges)

            # recs[j][blk]: one record per block, shared by the labels that
            # store it, as entry_cache shares the reveal entries
            recs = [[block_record(j, blk) for blk in range(wt.blocks_at(j))]
                    for j in range(wt.j_top + 1)]

            for eid in tree.edges:
                lab = labels[eid]
                ends = (lab.pos_u, lab.pos_v)
                if lab.is_tree:
                    if lab.pos_down not in tree.local_of:
                        raise AssertionError("tree edge not on its level tour")
                    ends = (lab.pos_down, lab.pos_up)
                sec = SqrtLevelSection(
                    tree_root=tid, span_end=span_end,
                    last_vertex=tree.vertex_positions[-1], w_real=wt.W_real,
                    reveal=window_entries([wt.ball_units(p, r) for p in ends]),
                )
                if lab.is_tree:
                    sec.after_v, sec.before_v = vertex_bounds(tree.vertex_positions, lab)
                    sec.unit_down = wt.unit_of_pos(lab.pos_down)
                    sec.unit_up = wt.unit_of_pos(lab.pos_up)
                    # new dicts per label, records shared
                    sec.near = {j: {blk: recs[j][blk] for blk in blocks}
                                for j, blocks in near_blocks(sec, wt.j_max)}
                lab.sections[ell] = sec
    return list(frame.pos_vertex), labels, meta


# ---------------------------------------------------------------------------
# query


def query_sqrt(
    records: dict[int, SqrtEdgeLabel],
    pos_s: int | None,
    pos_t: int | None,
    meta: SchemeMeta,
    keep_levels: bool = False,
) -> QueryResult:
    """The scheme-1 level loop with the scheme-2 tree step; the result
    lists each case-3 firing as (level, tree, scale, block, lge)."""
    case3_fired: list[tuple] = []
    step = partial(_sqrt_tree_step, j_max=radius_scale(meta.f, meta.phi)[1],
                   field=meta.field, names=meta.name_table(), case3_fired=case3_fired,
                   reveal_at={})
    res = query_levels(records, meta, keep_levels, step)
    res.case3_fired = case3_fired
    return res


def _reveal_by_tree(records, ell: int) -> dict[int, dict[EdgeName, RevealEntry]]:
    """tree root -> name -> reveal entry, over every fault's level-l
    section, in fault order."""
    out: dict[int, dict[EdgeName, RevealEntry]] = {}
    for lab in records.values():
        sec = lab.sections.get(ell)
        if sec is not None:
            reveal = out.setdefault(sec.tree_root, {})
            for ent in sec.reveal:
                reveal[ent.name] = ent
    return out


_NONE: dict = {}


def _sqrt_tree_step(records, ell: int, grp: TreePartition, j_max: int, field: Field,
                    names: NameTable, case3_fired: list[tuple], reveal_at: dict):
    """R3 pool: the edges revealed by any fault's level section in this
    tree, plus, over the dyadic cover of each interval J in J(T, F), the
    stored list of each block or its list decoded from revealed shares.
    A block with too few shares (case 3) marks its interval giant.  R4
    evidence: the certified tour weight of each part.  `reveal_at` keeps
    each level's `_reveal_by_tree` for the query's other trees."""
    faults = grp.faults
    w_real = faults[0][2].w_real
    W, j_top = padded_scales(w_real, j_max)
    by_tree = reveal_at.get(ell)
    if by_tree is None:
        by_tree = reveal_at[ell] = _reveal_by_tree(records, ell)
    reveal = by_tree[grp.tree_root]
    # a block's record is the one held by the last fault that stores it
    nears = [sec.near for (_, _, sec) in reversed(faults)]
    pool = dict.fromkeys(reveal)
    # interval i spans units [cuts[i], cuts[i + 1]); cuts follow grp.bounds
    cuts = [0] + [faults[fi][2].unit_up if o else faults[fi][2].unit_down
                  for (_, fi, o) in grp.bounds] + [W]
    marked: set[int] = set()
    for i in range(len(cuts) - 1):
        for (j, blk) in dyadic_cover(cuts[i], cuts[i + 1], j_top):
            for near in nears:
                rec = near.get(j, _NONE).get(blk)
                if rec is not None:
                    break
            else:
                continue  # unstored piece; interval weight covers it
            if rec.edges is not None:
                for nm in rec.edges:
                    pool.setdefault(nm)
                continue
            got = _block_shares(reveal.values(), j, blk, rec.lge)
            if len(got) >= (rec.lge + 1) // 2:
                syms = codeshares.decode(list(got.values()), rec.lge, field)
                for sym in syms:
                    pool.setdefault(names[sym])
            else:
                marked.add(i)
                case3_fired.append((ell, grp.tree_root, j, blk, rec.lge))

    def evidence(_ends):
        weight: dict[int, int] = {}
        for i in range(len(cuts) - 1):
            wgt = max(0, min(cuts[i + 1], w_real) - min(cuts[i], w_real))
            if wgt:
                root = grp.uf.find(i)
                weight[root] = weight.get(root, 0) + wgt
        return weight, marked

    return pool, evidence


def _block_shares(entries, j: int, blk: int, lge: int) -> dict[int, CodeShare]:
    """index -> share of block `blk` at scale `j`, from the revealed
    entries whose endpoint unit on that side lies in the block; an entry's
    shares are read only when one of its units does.  A share index
    outside 1..lge, or two shares with one index but different values,
    raises ValueError."""
    shares = []
    for ent in entries:
        for side, unit in ((0, ent.unit_a), (1, ent.unit_b)):
            if unit >> j == blk:
                sh = ent.shares.get((j, side))
                if sh is not None:
                    shares.append(sh)
    return codeshares.distinct_shares(shares, lge)
