"""Reference code that only the tests use: graph text output, a pair, a
class and a BFS connectivity oracle, an exact check and a text export of an
edge hierarchy, induced subgraphs, weighted distances and balls on a
`WeightedTour` walked element by element, dyadic block ranges, a
standalone 160-bit wire format for code shares, GF(p^2) arithmetic
for the Reed-Solomon oracle, the bit spans of a scheme-1 label's segment
lists and of a scheme-2 label's share rows and edge lists, a BFS
forest whose preorder scans all vertices per component, the weighted
tours of one level, and the scheme-1 R3/R4 tree step that pools every
name of every fault's lists."""

from __future__ import annotations

import struct
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain
from operator import itemgetter

from flbl.codeshares import CodeShare, Field
from flbl.euler import EulerFrame, WeightedTour
from flbl.graph import FaultSet, Graph, UnionFind, oracle_components
from flbl.hierarchy import EdgeLevelAssignment, verify_edge_expanding


def dump_graph(g: Graph) -> str:
    """The graph in the text format `load_graph` reads."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def oracle_connected(g: Graph, faults: FaultSet, s: int, t: int) -> bool:
    dead = set(faults.edge_ids)
    uf = UnionFind(g.n)
    for eid, (u, v) in enumerate(g.edges):
        if eid not in dead:
            uf.union(u, v)
    return uf.find(s) == uf.find(t)


def oracle_classes(g: Graph, F) -> tuple[dict[int, int], int]:
    """Component id per vertex of G - F, and the number of components."""
    comps = oracle_components(g, FaultSet.of(F, g))
    cid = {}
    for i, c in enumerate(comps):
        for v in c:
            cid[v] = i
    return cid, len(comps)


def bfs_components(g: Graph, faults: FaultSet) -> list[list[int]]:
    """Independent BFS oracle used to cross-check oracle_components."""
    dead = set(faults.edge_ids)
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = [s]
        while queue:
            x = queue.pop()
            for y, eid in g.adjacency[x]:
                if eid not in dead and not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    queue.append(y)
        comps.append(sorted(comp))
    return comps


def induced(g: Graph, verts: list[int]) -> tuple[Graph, dict[int, int], dict[int, int]]:
    """Induced subgraph plus vertex/edge id maps (new -> old)."""
    idx = {v: i for i, v in enumerate(verts)}
    sub_edges = []
    emap = {}
    for eid, (u, v) in enumerate(g.edges):
        if u in idx and v in idx:
            emap[len(sub_edges)] = eid
            sub_edges.append((idx[u], idx[v]))
    vmap = {i: v for v, i in idx.items()}
    return Graph(len(verts), tuple(sub_edges)), vmap, emap


def verify_edge_hierarchy(g: Graph, hier: EdgeLevelAssignment) -> bool:
    """Exact per-level, per-component expansion check (small n)."""
    for ell in range(1, hier.h + 1):
        keep = [e for e, lv in enumerate(hier.level) if lv <= ell]
        uf = UnionFind(g.n)
        for e in keep:
            u, v = g.edges[e]
            uf.union(u, v)
        for comp in uf.groups():
            if len(comp) == 1:
                continue
            sub, vmap, emap = induced(g, comp)
            x_local = {
                se for se, oe in emap.items() if hier.level[oe] == ell
            }
            ok, _ = verify_edge_expanding(sub, x_local, hier.phi)
            if not ok:
                return False
    return True


def export_edge_hierarchy(hier: EdgeLevelAssignment) -> str:
    tag = "certified" if hier.certified else "uncertified"
    lines = [f"{hier.h} {hier.phi.numerator}/{hier.phi.denominator} {tag}"]
    lines.extend(f"{e} {lv}" for e, lv in enumerate(hier.level))
    return "\n".join(lines) + "\n"


def dist(wt, pos_a: int, pos_b: int) -> int:
    """Weight strictly between two elements of the tour `wt`."""
    ia = wt.tree.local_of[pos_a]
    ib = wt.tree.local_of[pos_b]
    if ia > ib:
        ia, ib = ib, ia
    return wt.prefix[ib] - wt.prefix[ia + 1]


def ball_element(wt, pos: int, r: int) -> set[int]:
    """Vertices of the tour's tree within weighted distance r of the
    element at `pos`."""
    tree = wt.tree
    i = tree.local_of.get(pos)
    if i is None:
        raise ValueError(f"element at position {pos} is not on this tour")
    lo_bound = wt.prefix[i] - r          # need prefix[j+1] >= prefix[i]-r
    hi_bound = wt.prefix[i + 1] + r      # need prefix[j]  <= prefix[i+1]+r
    out: set[int] = set()
    j = i
    while j >= 0 and wt.prefix[j + 1] >= lo_bound:
        elem = wt.frame.tour[tree.positions[j]]
        if elem[0] == "v":
            out.add(elem[1])
        j -= 1
    j = i + 1
    n_el = len(tree.positions)
    while j < n_el and wt.prefix[j] <= hi_bound:
        elem = wt.frame.tour[tree.positions[j]]
        if elem[0] == "v":
            out.add(elem[1])
        j += 1
    return out


def ball_edge(wt, eid: int, r: int) -> set[int]:
    """Ball of an edge: both oriented occurrences for a tree edge, both
    endpoint vertices for a non-tree edge."""
    frame = wt.frame
    u, v = frame.graph.edges[eid]
    if eid in frame.tstar:
        if frame.parent[v] == u:
            c = v
        elif frame.parent[u] == v:
            c = u
        else:
            raise ValueError(f"edge {eid} not oriented in T*")
        p = frame.parent[c]
        return (ball_element(wt, frame.pos_oedge[(p, c)], r)
                | ball_element(wt, frame.pos_oedge[(c, p)], r))
    return ball_element(wt, frame.pos_vertex[u], r) | ball_element(wt, frame.pos_vertex[v], r)


def block_range(j: int, k: int) -> tuple[int, int]:
    """Half-open unit range of block k at scale j."""
    return k << j, (k + 1) << j


def share_to_bytes(sh: CodeShare) -> bytes:
    """The share as a little-endian u32 index and two u64 halves."""
    return struct.pack("<IQQ", sh.index, sh.a, sh.b)


def share_from_bytes(raw: bytes) -> CodeShare:
    return CodeShare(*struct.unpack("<IQQ", raw))


def simple_segment_spans(lab, wd):
    """(head bit, segment list) of every segment list of a scheme-1 tree
    edge label, in file order, located from the label and the file's
    `Widths`: a list's (truncated, count) head of 1 + cap bits is
    followed by its names."""
    at = 1 + 2 * wd.pos + wd.par + wd.h + 2 * wd.pos
    for sec in lab.sections.values():
        at += 3 * wd.pos
        at += sum(1 + (wd.pos if v is not None else 0) for v in (*sec.after_v, *sec.before_v))
        for seg in sec.segments:
            yield at, seg
            at += 1 + wd.cap + len(seg.entries) * wd.names.width


def sqrt_row_spans(lab, wd):
    """(kind, start bit, rows, row width) of every run of rows in a
    decoded scheme-2 edge label, located from the record and the file's
    `Widths`: each reveal entry's share rows (kind "shares", rows its
    (scale, side) -> share dict, possibly empty) and each stored block
    edge list ("edges")."""
    at = 1 + 2 * wd.pos + wd.par + wd.h + (2 * wd.pos if lab.is_tree else 0)
    row_bits = wd.idx + 2 * wd.share
    for sec in lab.sections.values():
        at += 3 * wd.pos + wd.unit + wd.m
        for ent in sec.reveal:
            at += wd.names.width + 2 * wd.unit + wd.present
            yield "shares", at, ent.shares, row_bits
            at += len(ent.shares) * row_bits
        if not lab.is_tree:
            continue
        at += sum(1 + (wd.pos if v is not None else 0) for v in (*sec.after_v, *sec.before_v))
        at += 2 * wd.unit
        for per in sec.near.values():
            for rec in per.values():
                at += wd.m + 1
                if rec.edges is not None:
                    at += wd.m
                    yield "edges", at, rec.edges, wd.names.width
                    at += len(rec.edges) * wd.names.width


class F2:
    """GF(p^2) element a + b*xi of `field`, with xi^2 = field.nonresidue:
    the full extension arithmetic, for oracles."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: Field, a: int, b: int = 0):
        self.field = field
        self.a = a % field.p
        self.b = b % field.p

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b

    def __repr__(self):
        return f"F2({self.a}, {self.b})"

    def __add__(self, other):
        return F2(self.field, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return F2(self.field, self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        fld = self.field
        return F2(fld, self.a * other.a + self.b * other.b % fld.p * fld.nonresidue,
                  self.a * other.b + self.b * other.a)


class ScanBfsForest:
    """Reference for `labels_rand.BfsForest`: the same BFS, with each
    component's child lists gathered by a scan of all n vertices."""

    def __init__(self, g: Graph):
        n = g.n
        self.parent = [-1] * n
        self.parent_edge = [-1] * n
        self.order: list[int] = []
        self.comp_of = [-1] * n
        self.comp_roots: list[int] = []
        seen = [False] * n
        for root in range(n):
            if seen[root]:
                continue
            self.comp_roots.append(root)
            ci = len(self.comp_roots) - 1
            seen[root] = True
            queue = [root]
            qi = 0
            while qi < len(queue):
                x = queue[qi]
                qi += 1
                self.comp_of[x] = ci
                for y, eid in sorted(g.adjacency[x]):
                    if not seen[y]:
                        seen[y] = True
                        self.parent[y] = x
                        self.parent_edge[y] = eid
                        queue.append(y)
            self.order.extend(self._preorder(root))
        self.pre = [0] * n
        for i, v in enumerate(self.order):
            self.pre[v] = i
        self.size = [1] * n
        for v in reversed(self.order):
            if self.parent[v] != -1:
                self.size[self.parent[v]] += self.size[v]
        self.tree_edges = {e for e in self.parent_edge if e != -1}
        self.comp_pre_starts = [self.pre[r] for r in self.comp_roots]

    def _preorder(self, root: int) -> list[int]:
        out = []
        kids: dict[int, list[int]] = {}
        for v, p in enumerate(self.parent):
            if p != -1 and self.comp_of[v] == self.comp_of[root]:
                kids.setdefault(p, []).append(v)
        stack = [root]
        while stack:
            x = stack.pop()
            out.append(x)
            for y in sorted(kids.get(x, ()), reverse=True):
                stack.append(y)
        return out


def tours_for_level(frame: EulerFrame, ell: int, f: int,
                    phi: Fraction) -> dict[int, WeightedTour]:
    """tree root -> weighted tour of each level-`ell` tree."""
    return {tid: WeightedTour(frame, tree, f, phi)
            for tid, tree in frame.trees_at(ell).items()}


def pooled_simple_tree_step(records, ell: int, grp):
    """Reference for `labels_simple._simple_tree_step`: the R3 pool is
    every name of every list of every fault of the tree, in first-seen
    order, and the R4 evidence bisects each pool endpoint and each
    faulted level-l tree edge's ends again, ignoring the counts that the
    R3 loop hands it."""
    pool = dict.fromkeys(chain.from_iterable(seg.entries for (_, _, sec) in grp.faults
                                             for seg in sec.segments))

    def evidence(_ends):
        ends = chain(map(itemgetter(0), pool), map(itemgetter(1), pool),
                     *((lab.pos_u, lab.pos_v) for (_, lab, _) in grp.faults if lab.level == ell))
        incid: dict[int, int] = {}
        for i, c in Counter(map(partial(bisect_left, grp.qs), ends)).items():
            r = grp.uf.find(i)
            incid[r] = incid.get(r, 0) + c
        return incid, ()

    return pool, evidence
