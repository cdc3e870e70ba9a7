"""The deterministic O~(f)-bit edge-fault labeling scheme.

Vertex labels are tour positions; tree-edge labels carry, per level, the
tour-segment descriptors around the edge's two oriented occurrences plus
capped lists of level-l non-tree edges incident to each segment.  The
build reads each level tree's vertex positions, edges and level-edge
events from `EulerFrame.trees_at`, and `edge_label` makes the
section-less label that scheme 2 starts from too.  The query rebuilds interval partitions per level from fault labels alone,
applying the four uniting rules (tour adjacency, replay from the previous
level, revealed surviving edges, and volume-threshold merging).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial

from .bits import pack_fields
from .codeshares import Field, field_for
from .euler import EulerFrame
from .graph import Graph, UnionFind
from .hierarchy import EdgeLevelAssignment


def cap_edges(f: int, phi: Fraction) -> int:
    """List cap f/phi + 1 (floor on the rational f/phi)."""
    return (f * phi.denominator) // phi.numerator + 1


def volume_exceeds(count: int, f: int, phi: Fraction) -> bool:
    """count > f/phi, exactly."""
    return count * phi.numerator > f * phi.denominator


# edge name: (min position, max position, parallel rank); distinct per edge
EdgeName = tuple[int, int, int]


def edge_names(g: Graph, pos_vertex: list[int]) -> list[EdgeName]:
    seen: dict[tuple[int, int], int] = {}
    names = []
    for (u, v) in g.edges:
        a, b = sorted((pos_vertex[u], pos_vertex[v]))
        k = seen.get((a, b), 0)
        seen[(a, b)] = k + 1
        names.append((a, b, k))
    return names


class NameTable(dict):
    """Edge names of one label file: the packed field of width 2·pos + par
    that `pack` makes -> its (a, b, k) tuple, split on first sight.  The
    packed field is what a label file writes for a name and the symbol a
    scheme-2 Reed-Solomon message holds."""

    __slots__ = ("pos", "par", "width")

    def __init__(self, pos: int, par: int):
        super().__init__()
        self.pos = pos
        self.par = par
        self.width = 2 * pos + par

    def pack(self, nm: EdgeName) -> int:
        """The name as one field; a part too wide raises ValueError."""
        a, b, k = nm
        return pack_fields(((a, self.pos), (b, self.pos), (k, self.par)))[0]

    def __missing__(self, packed: int) -> EdgeName:
        pos = self.pos
        mask = (1 << pos) - 1
        nm = self[packed] = (packed & mask, packed >> pos & mask, packed >> 2 * pos)
        return nm

    def of(self, fields: list[int]) -> list[EdgeName]:
        return list(map(self.__getitem__, fields))


@dataclass
class SegmentList:
    """Capped list of level-l non-tree edges incident to one tour segment,
    in first-incidence order."""

    entries: list[EdgeName]
    truncated: bool


@dataclass
class LevelSection:
    """Per-level data of a tree edge's label."""

    tree_root: int             # id of the level tree (its first tour position)
    span_end: int              # last tour position of the tree
    last_vertex: int           # greatest vertex position in the tree
    # per orientation (down = parent->child occurrence, up = reverse):
    after_v: tuple[int | None, int | None]    # first vertex position after
    before_v: tuple[int | None, int | None]   # last vertex position before
    segments: tuple[SegmentList, SegmentList, SegmentList]  # X, Y, Z


@dataclass
class SimpleEdgeLabel:
    pos_u: int
    pos_v: int
    par: int
    is_tree: bool
    level: int = 0
    pos_down: int = 0          # position of the (parent, child) occurrence
    pos_up: int = 0
    sections: dict[int, LevelSection] = field(default_factory=dict)

    @property
    def name(self) -> EdgeName:
        a, b = sorted((self.pos_u, self.pos_v))
        return (a, b, self.par)


@dataclass
class SchemeMeta:
    """Header facts every query needs (never the graph itself)."""

    n: int
    aux_n: int                 # vertex count of the labeled graph
    m: int
    f: int
    phi: Fraction
    h: int
    comp_roots: list[int]      # tour position of each component root, sorted
    par_bits: int = 0
    seed: int = 0
    vertex_map: list[int] | None = None  # original vertex -> labeled vertex
    certified: bool = True
    aux_m: int = 0             # edge count of the labeled graph (0: same as m)
    share_index_bits: int = 0  # scheme 2: bit length of the largest lge

    @property
    def width_m(self) -> int:
        return self.aux_m or self.m

    @property
    def pos_bits(self) -> int:
        """Width of a tour position: positions lie below 3·aux_n."""
        return max(1, (3 * self.aux_n).bit_length())

    def name_table(self) -> NameTable:
        return NameTable(self.pos_bits, self.par_bits)

    @property
    def field(self) -> Field:
        """The scheme-2 share field: the first prime above 2^(2·pos + par)."""
        return field_for(2 * self.pos_bits + self.par_bits)


def vertex_bounds(vert_positions: list[int], lab: SimpleEdgeLabel):
    """A tree edge's (after_v, before_v): per oriented occurrence (down,
    up), the first vertex position after it and the last before it among a
    tree's ascending vertex positions, None where there is none."""
    after, before = [], []
    for pos in (lab.pos_down, lab.pos_up):
        i = bisect_left(vert_positions, pos)
        after.append(vert_positions[i] if i < len(vert_positions) else None)
        before.append(vert_positions[i - 1] if i > 0 else None)
    return tuple(after), tuple(before)


def edge_label(cls, frame: EulerFrame, names: list[EdgeName], eid: int, level: int):
    """The section-less label of edge `eid` as a `cls`: its end positions
    and parallel rank, and for a tree edge the positions of its two
    oriented occurrences."""
    u, v = frame.graph.edges[eid]
    lab = cls(pos_u=frame.pos_vertex[u], pos_v=frame.pos_vertex[v], par=names[eid][2],
              is_tree=eid in frame.tstar, level=level)
    if lab.is_tree:
        child = v if frame.parent[v] == u else u
        lab.pos_down = frame.pos_oedge[(frame.parent[child], child)]
        lab.pos_up = frame.pos_oedge[(child, frame.parent[child])]
    return lab


def scheme_meta(g: Graph, hier: EdgeLevelAssignment, frame: EulerFrame, f: int,
                names: list[EdgeName]) -> SchemeMeta:
    """The header facts of a scheme-1 or scheme-2 build."""
    return SchemeMeta(
        n=g.n, aux_n=g.n, m=g.m, f=f, phi=hier.phi, h=hier.h,
        comp_roots=[frame.pos_vertex[r] for r in frame.comp_roots],
        par_bits=max((nm[2] for nm in names), default=0).bit_length(),
        certified=hier.certified,
    )


def _segment_list(ev_pos, ev_name, lo, hi, cap, memo=None) -> SegmentList:
    """First-incidence capped edge list for tour range (lo, hi).

    ev_pos / ev_name are the positions and edge names of one tree's
    `TreeTour.events`.
    An edge's first event sits at its name's min position, so the event
    at p repeats an edge already listed exactly when lo < name[0] < p.
    cap + 1 distinct edges have at most 2(cap + 1) events, so no event
    past those can enter the list.

    The list depends only on the event slice [i, j): every name[0] is an
    event position, so lo < name[0] holds alike for each lo that leaves
    the same events at or below it.  A `memo` dict, one per tree, keeps
    one list per slice, shared by every range that cuts that slice.
    """
    i = bisect_right(ev_pos, lo)
    j = min(bisect_left(ev_pos, hi), i + 2 * cap + 2)
    if memo is not None and (i, j) in memo:
        return memo[i, j]
    out = [nm for p, nm in zip(ev_pos[i:j], ev_name[i:j]) if not lo < nm[0] < p]
    seg = SegmentList(entries=out[:cap], truncated=len(out) > cap)
    if memo is not None:
        memo[i, j] = seg
    return seg


def build_simple_labels(
    g: Graph, hier: EdgeLevelAssignment, frame: EulerFrame, f: int
) -> tuple[list[int], list[SimpleEdgeLabel], SchemeMeta]:
    """Vertex labels, edge labels and header facts of scheme 1.  Per level
    tree (`frame.trees_at`), each tree edge of level <= l gets a section:
    vertex bounds from the tree's `vertex_positions` and three capped
    segment lists cut from its `events`.  Labels share a tree's lists
    (one `SegmentList` per event slice), so the lists are read-only."""
    cap = cap_edges(f, hier.phi)
    names = edge_names(g, frame.pos_vertex)
    # the file stores no level for a non-tree edge
    labels = [edge_label(SimpleEdgeLabel, frame, names, eid,
                         hier.level[eid] if eid in frame.tstar else 0)
              for eid in range(g.m)]
    # per-level sections, computed tree by tree over each tree's own edges
    for ell in range(1, hier.h + 1):
        for tid, tree in frame.trees_at(ell).items():
            ev_pos = [p for p, _ in tree.events]
            ev_name = [names[e] for _, e in tree.events]
            span_start, span_end = tree.span
            # the tree's lists by event slice, shared by the labels that cut it
            seg = partial(_segment_list, ev_pos, ev_name, cap=cap, memo={})
            for eid in tree.edges:
                lab = labels[eid]
                if not lab.is_tree:
                    continue
                segs = (
                    seg(span_start - 1, lab.pos_down),
                    seg(lab.pos_down, lab.pos_up),
                    seg(lab.pos_up, span_end + 1),
                )
                after_v, before_v = vertex_bounds(tree.vertex_positions, lab)
                lab.sections[ell] = LevelSection(
                    tree_root=tid,
                    span_end=span_end,
                    last_vertex=tree.vertex_positions[-1],
                    after_v=after_v,
                    before_v=before_v,
                    segments=segs,
                )
    return list(frame.pos_vertex), labels, scheme_meta(g, hier, frame, f, names)


# ---------------------------------------------------------------------------
# query-side partition machinery


class TreePartition:
    """Interval partition of one faulted level tree (the P_l[T] state).

    Intervals are the 2 f0 + 1 gaps of the tree tour around oriented
    fault occurrences; a union-find over them tracks the parts.
    """

    def __init__(self, tree_root: int, span_end: int, last_vertex: int,
                 faults: list[tuple[int, SimpleEdgeLabel, LevelSection]]):
        self.tree_root = tree_root
        self.faults = faults
        bounds: list[tuple[int, int, int]] = []  # (position, fault idx, 0=down 1=up)
        for i, (eid, lab, sec) in enumerate(faults):
            bounds.append((lab.pos_down, i, 0))
            bounds.append((lab.pos_up, i, 1))
        bounds.sort()
        self.bounds = bounds
        self.qs = [b[0] for b in bounds]
        k = len(bounds)
        self.uf = UnionFind(k + 1)
        self.span_end = span_end
        self.last_vertex = last_vertex
        # R1: stitch across each fault's two orientations, and tour ends.
        # Positions are distinct within a tree, so the occurrence at index
        # i of the sorted bounds ends interval i and starts interval i + 1.
        at = [0] * k
        for i, (_, fi, o) in enumerate(bounds):
            at[2 * fi + o] = i
        union = self.uf.union
        for down, up in zip(at[0::2], at[1::2]):
            union(down, up + 1)
            union(up, down + 1)
        union(0, k)

    @cached_property
    def first_vertex(self) -> list[int | None]:
        """Per interval, its smallest vertex position, or None if it holds
        no vertex; built on first read (only R4 merges and the component
        count read it)."""
        bounds, faults, qs = self.bounds, self.faults, self.qs
        k = len(qs)
        out: list[int | None] = []
        # interval i spans (left_i, right_i) with fault positions as bounds
        for i in range(k + 1):
            left = qs[i - 1] if i > 0 else self.tree_root - 1
            right = qs[i] if i < k else self.span_end + 1
            if i > 0:
                _, fi, o = bounds[i - 1]
                fv = faults[fi][2].after_v[o]
            else:
                fv = self.tree_root  # the root vertex opens the tour
            if fv is not None and not (left < fv < right):
                fv = None
            if i < k:
                _, fi, o = bounds[i]
                lv = faults[fi][2].before_v[o]
            else:
                lv = self.last_vertex
            if lv is not None and not (left < lv < right):
                lv = None
            if (fv is None) != (lv is None):
                fv = None  # descriptor pair disagrees only when empty
            out.append(fv)
        return out

    def locate(self, pos: int) -> int:
        """Interval containing a vertex position known to lie in V(T)."""
        return bisect_left(self.qs, pos)

    def unite(self, pos_x: int, pos_y: int) -> bool:
        return self.uf.union(self.locate(pos_x), self.locate(pos_y))

    def parts(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i in range(len(self.qs) + 1):
            out.setdefault(self.uf.find(i), []).append(i)
        return out

    def part_rep_vertex(self, root: int) -> int | None:
        """Smallest vertex position in the part, or None if vertex-empty."""
        best = None
        for i in range(len(self.qs) + 1):
            if self.uf.find(i) == root and self.first_vertex[i] is not None:
                fv = self.first_vertex[i]
                if best is None or fv < best:
                    best = fv
        return best


@dataclass
class QueryResult:
    """Connected components of G - F, reconstructed from labels only."""

    meta: SchemeMeta
    top: dict[int, TreePartition]       # tree_root -> partition at level h
    case3_fired: list[tuple] = field(default_factory=list)
    levels: dict[tuple[int, int], TreePartition] = field(default_factory=dict)

    def _comp_index(self, pos: int) -> int:
        roots = self.meta.comp_roots
        return bisect_right(roots, pos) - 1

    def class_of(self, pos: int):
        ci = self._comp_index(pos)
        root = self.meta.comp_roots[ci]
        grp = self.top.get(root)
        if grp is None:
            return ("intact", ci)
        return ("part", root, grp.uf.find(grp.locate(pos)))

    def connected(self, pos_s: int, pos_t: int) -> bool:
        return self.class_of(pos_s) == self.class_of(pos_t)

    def component_count(self) -> int:
        count = len(self.meta.comp_roots) - len(self.top)
        for grp in self.top.values():
            seen = set()
            for i in range(len(grp.qs) + 1):
                if grp.first_vertex[i] is not None:
                    seen.add(grp.uf.find(i))
            count += len(seen)
        return count


def _sections_at(records: dict[int, SimpleEdgeLabel], ell: int):
    """Group faulted tree edges by their level-l tree."""
    groups: dict[int, list[tuple[int, SimpleEdgeLabel, LevelSection]]] = {}
    for eid, lab in records.items():
        if lab.is_tree and ell in lab.sections:
            sec = lab.sections[ell]
            groups.setdefault(sec.tree_root, []).append((eid, lab, sec))
    return groups


def query_levels(records: dict, meta: SchemeMeta, keep_levels: bool, tree_step) -> QueryResult:
    """The level loop of schemes 1-2: rebuild the partition of each
    faulted level-l tree from fault labels alone, for l = 1..h.

    Per tree: R1 (`TreePartition`), R2 (replay of the unites recorded at
    lower levels, routed via the recording fault), R3 (unite the ends of
    every edge named in the pool that is not a fault) and R4 (merge the
    giant parts).  `tree_step(records, ell, grp)` returns the pool of
    distinct edge names and a callable that, once the R3 unites are done,
    takes the count of pool ends in each interval and gives the volume
    evidence per part and the parts marked giant outright.

    R3 locates each end of a pool name once and unites each distinct
    interval pair once, recording the first name that merges it.  Any
    name of the pair is as good a record: the vertices of one level-l
    interval are connected in T_l - F, hence in every higher level's
    tree minus F.
    """
    if len(records) > meta.f:
        raise ValueError(f"fault set of size {len(records)} exceeds f={meta.f}")
    # pools name only non-tree edges, so only non-tree faults can match
    fault_names = {lab.name for lab in records.values() if not lab.is_tree}
    # recorded unite calls: (pos_x, pos_y, routing fault edge id)
    recorded: list[tuple[int, int, int]] = []
    snapshots: dict[tuple[int, int], TreePartition] = {}
    groups: dict[int, TreePartition] = {}
    for ell in range(1, meta.h + 1):
        groups = {}
        for tree_root, faults in _sections_at(records, ell).items():
            sec0 = faults[0][2]
            groups[tree_root] = TreePartition(
                tree_root, sec0.span_end, sec0.last_vertex, faults
            )
        for (px, py, route_eid) in recorded:
            sec = records[route_eid].sections.get(ell)
            if sec is None:
                continue
            grp = groups.get(sec.tree_root)
            if grp is not None:
                grp.unite(px, py)
        new_records: list[tuple[int, int, int]] = []
        for grp in groups.values():
            route = grp.faults[0][0]
            pool, evidence = tree_step(records, ell, grp)
            qs, union = grp.qs, grp.uf.union
            ends = [0] * (len(qs) + 1)
            united = set()
            for nm in pool:
                a, b, _ = nm
                x = bisect_left(qs, a)
                y = bisect_left(qs, b)
                ends[x] += 1
                ends[y] += 1
                if x != y and (x, y) not in united and nm not in fault_names:
                    united.add((x, y))
                    if union(x, y):
                        new_records.append((a, b, route))
            volume, marked = evidence(ends)
            _merge_giants(grp, volume, marked, meta, new_records, route)
        recorded.extend(new_records)
        if keep_levels:
            snapshots.update({(ell, tr): grp for tr, grp in groups.items()})
    return QueryResult(meta=meta, top=groups, levels=snapshots)


def _simple_tree_step(records, ell: int, grp: TreePartition):
    """R3 pool: the level-l non-tree edges that the tree's faults name.  A
    fault's lists X, Y and Z cover the whole tour, so when none of them is
    truncated they name every such edge of the tree: the first fault with
    three complete lists gives the pool alone.  Otherwise the pool is the
    union of the tree's distinct lists.  R4 evidence: distinct-edge
    endpoint incidences per part, from the pool plus the faulted level-l
    tree edges; no part is marked."""
    for _, _, sec in grp.faults:
        segs = sec.segments
        if not (segs[0].truncated or segs[1].truncated or segs[2].truncated):
            break
    else:
        segs = {id(seg): seg for (_, _, sec) in grp.faults for seg in sec.segments}.values()
    pool = set().union(*(seg.entries for seg in segs))

    def evidence(ends):
        qs = grp.qs
        for (_, lab, _) in grp.faults:
            if lab.level == ell:
                ends[bisect_left(qs, lab.pos_u)] += 1
                ends[bisect_left(qs, lab.pos_v)] += 1
        incid: dict[int, int] = {}
        for i, c in enumerate(ends):
            if c:
                r = grp.uf.find(i)
                incid[r] = incid.get(r, 0) + c
        return incid, ()

    return pool, evidence


def query_simple(
    records: dict[int, SimpleEdgeLabel],
    pos_s: int | None,
    pos_t: int | None,
    meta: SchemeMeta,
    keep_levels: bool = False,
) -> QueryResult:
    """Run the level-by-level partition reconstruction from fault labels.

    records maps faulted edge id -> decoded label; positions of s and t
    are their vertex labels (may be None for count-only queries).
    """
    return query_levels(records, meta, keep_levels, _simple_tree_step)


def _merge_giants(grp: TreePartition, evidence: dict[int, int], marked, meta: SchemeMeta,
                  new_records: list, route: int):
    """Unite every part whose certified level volume exceeds f/phi, and
    every part holding a marked interval."""
    while True:
        agg: dict[int, int] = {}
        for r, c in evidence.items():
            rr = grp.uf.find(r)
            agg[rr] = agg.get(rr, 0) + c
        giants = {
            r for r, c in agg.items() if volume_exceeds(c, meta.f, meta.phi)
        }
        giants |= {grp.uf.find(i) for i in marked}
        if len(giants) <= 1:
            return
        giants = sorted(giants)
        merged = False
        base = giants[0]
        base_rep = grp.part_rep_vertex(base)
        for r in giants[1:]:
            rep = grp.part_rep_vertex(r)
            if grp.uf.union(base, r):
                merged = True
                if base_rep is not None and rep is not None:
                    new_records.append((base_rep, rep, route))
        if not merged:
            return
