"""The deterministic O~(f)-bit edge-fault labeling scheme.

Vertex labels are tour positions; tree-edge labels carry, per level, the
tour-segment descriptors around the edge's two oriented occurrences plus
capped lists of level-l non-tree edges incident to each segment.  The
query rebuilds interval partitions per level from fault labels alone,
applying the four uniting rules (tour adjacency, replay from the previous
level, revealed surviving edges, and volume-threshold merging).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

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

    @property
    def width_m(self) -> int:
        return self.aux_m or self.m


def _incident_events(frame: EulerFrame, ell: int, names: list[EdgeName]):
    """Per level tree: the positions and edge names of its level-l non-tree
    edge events, one per incident endpoint, in (position, edge id) order."""
    g = frame.graph
    by_tree: dict[int, list[tuple[int, int]]] = {}
    tree_of = frame.tree_assignment(ell)
    for eid in frame.level_nontree_edges(ell):
        u, v = g.edges[eid]
        tid = tree_of[u]
        evs = by_tree.setdefault(tid, [])
        evs.append((frame.pos_vertex[u], eid))
        evs.append((frame.pos_vertex[v], eid))
    out = {}
    for tid, evs in by_tree.items():
        evs.sort()
        out[tid] = ([p for p, _ in evs], [names[e] for _, e in evs])
    return out


def _segment_list(ev_pos, ev_name, lo, hi, cap) -> SegmentList:
    """First-incidence capped edge list for tour range (lo, hi).

    ev_pos / ev_name are one tree's events from _incident_events.
    An edge's first event sits at its name's min position, so the event
    at p repeats an edge already listed exactly when lo < name[0] < p.
    cap + 1 distinct edges have at most 2(cap + 1) events, so no event
    past those can enter the list.
    """
    i = bisect_right(ev_pos, lo)
    j = min(bisect_left(ev_pos, hi), i + 2 * cap + 2)
    out = [nm for p, nm in zip(ev_pos[i:j], ev_name[i:j]) if not lo < nm[0] < p]
    if len(out) > cap:
        return SegmentList(entries=out[:cap], truncated=True)
    return SegmentList(entries=out, truncated=False)


def build_simple_labels(
    g: Graph, hier: EdgeLevelAssignment, frame: EulerFrame, f: int
) -> tuple[list[int], list[SimpleEdgeLabel], SchemeMeta]:
    phi = hier.phi
    cap = cap_edges(f, phi)
    names = edge_names(g, frame.pos_vertex)
    vertex_labels = list(frame.pos_vertex)
    labels: list[SimpleEdgeLabel] = []
    for eid in range(g.m):
        u, v = g.edges[eid]
        _, _, k = names[eid]
        if eid not in frame.tstar:
            labels.append(
                SimpleEdgeLabel(
                    pos_u=frame.pos_vertex[u], pos_v=frame.pos_vertex[v], par=k,
                    is_tree=False,
                )
            )
            continue
        child = v if frame.parent[v] == u else u
        par_v = frame.parent[child]
        lab = SimpleEdgeLabel(
            pos_u=frame.pos_vertex[u], pos_v=frame.pos_vertex[v], par=k,
            is_tree=True, level=hier.level[eid],
            pos_down=frame.pos_oedge[(par_v, child)],
            pos_up=frame.pos_oedge[(child, par_v)],
        )
        labels.append(lab)
    # per-level sections, computed tree by tree over each tree's own edges
    tree_edges = sorted(frame.tstar)
    for ell in range(1, hier.h + 1):
        events_by_tree = _incident_events(frame, ell, names)
        tree_of = frame.tree_assignment(ell)
        edges_by_tree: dict[int, list[int]] = {}
        for eid in tree_edges:
            if hier.level[eid] <= ell:
                edges_by_tree.setdefault(tree_of[g.edges[eid][0]], []).append(eid)
        for tid, tree in frame.trees_at(ell).items():
            vert_positions = [p for p in tree.positions if frame.tour[p][0] == "v"]
            ev_pos, ev_name = events_by_tree.get(tid, ([], []))
            span_start, span_end = tree.span

            def near(pos):
                i = bisect_left(vert_positions, pos)
                after = vert_positions[i] if i < len(vert_positions) else None
                before = vert_positions[i - 1] if i > 0 else None
                return after, before

            for eid in edges_by_tree.get(tid, ()):
                lab = labels[eid]
                a_d, b_d = near(lab.pos_down)
                a_u, b_u = near(lab.pos_up)
                segs = (
                    _segment_list(ev_pos, ev_name, span_start - 1, lab.pos_down, cap),
                    _segment_list(ev_pos, ev_name, lab.pos_down, lab.pos_up, cap),
                    _segment_list(ev_pos, ev_name, lab.pos_up, span_end + 1, cap),
                )
                lab.sections[ell] = LevelSection(
                    tree_root=tid,
                    span_end=span_end,
                    last_vertex=vert_positions[-1],
                    after_v=(a_d, a_u),
                    before_v=(b_d, b_u),
                    segments=segs,
                )
    meta = SchemeMeta(
        n=g.n, aux_n=g.n, m=g.m, f=f, phi=phi, h=hier.h,
        comp_roots=[frame.pos_vertex[r] for r in frame.comp_roots],
        par_bits=max((nm[2] for nm in names), default=0).bit_length(),
        certified=hier.certified,
    )
    return vertex_labels, labels, meta


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
        # interval i spans (left_i, right_i) with fault positions as bounds
        self.first_vertex: list[int | None] = []
        self.last_vertex: list[int | None] = []
        for i in range(k + 1):
            left = self.qs[i - 1] if i > 0 else tree_root - 1
            right = self.qs[i] if i < k else span_end + 1
            if i > 0:
                pos, fi, o = bounds[i - 1]
                fv = faults[fi][2].after_v[o]
            else:
                fv = tree_root  # the root vertex opens the tour
            if fv is not None and not (left < fv < right):
                fv = None
            if i < k:
                pos, fi, o = bounds[i]
                lv = faults[fi][2].before_v[o]
            else:
                lv = last_vertex
            if lv is not None and not (left < lv < right):
                lv = None
            if (fv is None) != (lv is None):
                fv = lv = None  # descriptor pair disagrees only when empty
            self.first_vertex.append(fv)
            self.last_vertex.append(lv)
        # R1: stitch across each fault's two orientations, and tour ends
        for i, (eid, lab, sec) in enumerate(faults):
            end_down = self._interval_ending_at(lab.pos_down)
            start_up = self._interval_starting_at(lab.pos_up)
            self.uf.union(end_down, start_up)
            end_up = self._interval_ending_at(lab.pos_up)
            start_down = self._interval_starting_at(lab.pos_down)
            self.uf.union(end_up, start_down)
        self.uf.union(0, k)

    def _interval_ending_at(self, q: int) -> int:
        return self.qs.index(q)

    def _interval_starting_at(self, q: int) -> int:
        return self.qs.index(q) + 1

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
    if len(records) > meta.f:
        raise ValueError(f"fault set of size {len(records)} exceeds f={meta.f}")
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
        # R2: replay all recorded unites, routed via the recording fault
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
            route = grp.faults[0][0]
            # R3: unite via listed level-l edges that are not faults
            pool: dict[EdgeName, tuple[int, int]] = {}
            for (eid, lab, sec) in grp.faults:
                for seg in sec.segments:
                    for nm in seg.entries:
                        pool[nm] = (nm[0], nm[1])
            for nm, (pa, pb) in pool.items():
                if nm in fault_names:
                    continue
                if grp.unite(pa, pb):
                    new_records.append((pa, pb, route))
            # R4: unite all parts with revealed volume above f/phi
            self_evidence = _volume_evidence(grp, pool, records, ell)
            _merge_giants(grp, self_evidence, meta, new_records, route)
        recorded.extend(new_records)
        if keep_levels:
            snapshots.update({(ell, tr): grp for tr, grp in groups.items()})
    res = QueryResult(meta=meta, top=groups)
    if keep_levels:
        res.levels = snapshots
    return res


def _volume_evidence(grp: TreePartition, pool, records, ell):
    """Distinct-edge endpoint incidences per part, from listed edges plus
    faulted level-l tree edges."""
    incid: dict[int, int] = {}
    for nm, (pa, pb) in pool.items():
        for p in (pa, pb):
            r = grp.uf.find(grp.locate(p))
            incid[r] = incid.get(r, 0) + 1
    for (eid, lab, sec) in grp.faults:
        if lab.level == ell:
            for p in (lab.pos_u, lab.pos_v):
                r = grp.uf.find(grp.locate(p))
                incid[r] = incid.get(r, 0) + 1
    return incid


def _merge_giants(grp: TreePartition, evidence: dict[int, int], meta: SchemeMeta,
                  new_records: list, route: int, extra_giants: set[int] | None = None):
    """Unite every part whose certified level volume exceeds f/phi."""
    while True:
        agg: dict[int, int] = {}
        for r, c in evidence.items():
            rr = grp.uf.find(r)
            agg[rr] = agg.get(rr, 0) + c
        giants = {
            r for r, c in agg.items() if volume_exceeds(c, meta.f, meta.phi)
        }
        if extra_giants:
            giants |= {grp.uf.find(r) for r in extra_giants}
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
