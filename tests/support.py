"""Reference code that only the tests use: graph text output, a pair, a
class and a BFS connectivity oracle, an exact check and a text export of an
edge hierarchy, induced subgraphs, weighted distances and balls on a
`WeightedTour` walked element by element, dyadic block ranges, a
standalone 160-bit wire format for code shares, GF(p^2) arithmetic
for the Reed-Solomon oracle, the bit spans of a scheme-1 label's segment
lists and of a scheme-2 label's share rows and edge lists, a BFS
forest whose preorder scans all vertices per component, the weighted
tours of one level, the scheme-1 R3/R4 tree step that pools every
name of every fault's lists, and the two-pass scheme-1/2 edge-label
decoders that make one reader call per field, with the reader they
need (`PeekReader`) and the bit at which each section of a decoded
label starts."""

from __future__ import annotations

import struct
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain
from operator import itemgetter

from flbl.bits import BitReader
from flbl.codeshares import CodeShare, Field
from flbl.euler import EulerFrame, WeightedTour
from flbl.graph import FaultSet, Graph, UnionFind, oracle_components
from flbl.hierarchy import EdgeLevelAssignment, verify_edge_expanding
from flbl.labels_simple import LevelSection, SegmentList, SimpleEdgeLabel
from flbl.labels_sqrt import (BlockRecord, RevealEntry, SqrtEdgeLabel, SqrtLevelSection,
                              near_blocks)


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


# -- reference decoders --------------------------------------------------------


class PeekReader(BitReader):
    """A `BitReader` that can also look ahead without moving (`peek`) and
    move past bits unread (`skip`)."""

    def peek(self, width: int) -> int:
        """The next `width` bits as one int, without moving; bits past the
        payload read as 0, so a caller that keeps fewer of them moves on
        with `skip`, which checks the bounds."""
        pos = self.pos
        return int.from_bytes(self.data[pos >> 3:(pos + width + 7) >> 3],
                              "little") >> (pos & 7) & ((1 << width) - 1)

    def skip(self, width: int) -> int:
        """Move past `width` bits without reading them and return the
        position they start at.  Bounds-checked like `read_fields`."""
        pos = self.pos
        if pos + width > self.nbits:
            raise ValueError(f"skip of {width} bits at bit {pos} runs past "
                             f"the {self.nbits}-bit payload")
        self.pos = pos + width
        return pos


def read_opts(r: PeekReader, bits: int):
    """A section's (after_v, before_v) pair, split from one window as wide
    as all four positions present; the bits used are then skipped."""
    window = r.peek(4 * (bits + 1))
    mask = (1 << bits) - 1
    vals = []
    at = 0
    for _ in range(4):
        present = window >> at & 1
        vals.append(window >> at + 1 & mask if present else None)
        at += 1 + bits * present
    r.skip(at)
    av0, bv0, av1, bv1 = vals
    return (av0, av1), (bv0, bv1)


def read_each_run(data: bytes, starts, counts, width: int) -> list[list[int]]:
    """The run of `counts[i]` fields of `width` bits at bit `starts[i]`
    of `data`, for every i, each read with `BitReader.read_fields`."""
    r = BitReader(data)
    runs = []
    for start, cnt in zip(starts, counts):
        r.pos = start
        runs.append(r.read_fields((width,) * cnt))
    return runs


def reference_decode_simple_edge(r: PeekReader, wd, meta) -> SimpleEdgeLabel:
    """Reference for `labelfile.decode_simple_edge`, in two passes: the
    heads and one read per key, then the names of each new list read
    back from its saved (start, count) run; the same per-file table."""
    is_tree, pos_u, pos_v, par = r.read_fields((1, wd.pos, wd.pos, wd.par))
    if not is_tree:
        return SimpleEdgeLabel(pos_u=pos_u, pos_v=pos_v, par=par, is_tree=False)
    level, pos_down, pos_up = r.read_fields((wd.h, wd.pos, wd.pos))
    lab = SimpleEdgeLabel(
        pos_u=pos_u, pos_v=pos_v, par=par, is_tree=True, level=level,
        pos_down=pos_down, pos_up=pos_up,
    )
    names = wd.names
    width = names.width
    seg_head = 1 + wd.cap
    cap = wd.list_cap
    table = wd.segments
    new = {}
    starts, counts, pending = [], [], []
    for ell in range(level, meta.h + 1):
        tree_root, span_end, last_vertex = r.read_fields((wd.pos, wd.pos, wd.pos))
        after_v, before_v = read_opts(r, wd.pos)
        segs = []
        for _ in range(3):
            cnt = r.peek(seg_head) >> 1
            nbits = seg_head + cnt * width
            key = r.read(nbits) | 1 << nbits
            seg = table.get(key) or new.get(key)
            if seg is None:
                truncated = key & 1
                if cnt > cap or truncated and cnt < cap:
                    marked = "marked truncated " if truncated else ""
                    raise ValueError(f"bad label file: a segment list {marked}holds {cnt} "
                                     f"names, where the list cap is {cap}")
                seg = new[key] = SegmentList(entries=None, truncated=bool(truncated))
                pending.append(seg)
                starts.append(r.pos - cnt * width)
                counts.append(cnt)
            segs.append(seg)
        lab.sections[ell] = LevelSection(
            tree_root=tree_root, span_end=span_end, last_vertex=last_vertex,
            after_v=after_v, before_v=before_v, segments=tuple(segs),
        )
    for seg, run in zip(pending, read_each_run(r.data, starts, counts, width)):
        seg.entries = names.of(run)
    table.update(new)
    return lab


def reference_decode_sqrt_edge(r: PeekReader, wd, meta) -> SqrtEdgeLabel:
    """Reference for `labelfile.decode_sqrt_edge`, in two passes: the
    heads and one read per key, with `near_blocks` run for every
    tree-edge section, then the block-list names and share rows of each
    new record read back from its saved (start, count) run; the same
    per-file tables."""
    is_tree, pos_u, pos_v, par, level = r.read_fields((1, wd.pos, wd.pos, wd.par, wd.h))
    lab = SqrtEdgeLabel(
        pos_u=pos_u, pos_v=pos_v, par=par, is_tree=bool(is_tree), level=level,
    )
    if is_tree:
        lab.pos_down, lab.pos_up = r.read_fields((wd.pos, wd.pos))
    names = wd.names
    width = names.width
    sec_w = (wd.pos, wd.pos, wd.pos, wd.unit, wd.m)
    name_mask = (1 << width) - 1
    unit_mask = (1 << wd.unit) - 1
    ub_at = width + wd.unit
    present_at = ub_at + wd.unit
    head_bits = present_at + wd.present
    m_mask = (1 << wd.m) - 1
    blk_bits = 2 * wd.m + 1
    head_key = 1 << head_bits
    no_list_key = 1 << wd.m + 1
    row_bits = wd.idx + 2 * wd.share
    idx_mask = (1 << wd.idx) - 1
    share_mask = (1 << wd.share) - 1
    b_at = wd.idx + wd.share

    entry_table, block_table = wd.entries, wd.blocks
    new_entries, new_blocks = {}, {}
    held, row_starts, row_counts = [], [], []
    listed, name_starts, name_counts = [], [], []
    for ell in range(level, meta.h + 1):
        tree_root, span_end, last_vertex, w_real, nrev = r.read_fields(sec_w)
        reveal = []
        for _ in range(nrev):
            head = r.read(head_bits)
            present = head >> present_at
            cnt = present.bit_count()
            at = r.pos
            if cnt:
                rows = row_bits * cnt
                key = (r.read(rows) | 1 << rows) << head_bits | head
            else:
                key = head | head_key
            ent = entry_table.get(key) or new_entries.get(key)
            if ent is None:
                ent = new_entries[key] = RevealEntry(
                    name=names[head & name_mask], unit_a=head >> width & unit_mask,
                    unit_b=head >> ub_at & unit_mask, shares={})
                if cnt:
                    held.append((ent.shares, present))
                    row_starts.append(at)
                    row_counts.append(cnt)
            reveal.append(ent)
        sec = SqrtLevelSection(
            tree_root=tree_root, span_end=span_end, last_vertex=last_vertex,
            w_real=w_real, reveal=reveal,
        )
        if is_tree:
            sec.after_v, sec.before_v = read_opts(r, wd.pos)
            sec.unit_down, sec.unit_up = r.read_fields((wd.unit, wd.unit))
            for j, blocks in near_blocks(sec, wd.j_max):
                per = sec.near[j] = {}
                for blk in blocks:
                    head = r.peek(blk_bits)
                    has_list = head >> wd.m & 1
                    at = r.pos + blk_bits
                    if has_list:
                        cnt = head >> wd.m + 1
                        nbits = blk_bits + cnt * width
                        key = r.read(nbits) | 1 << nbits
                    else:
                        r.skip(wd.m + 1)
                        key = head & m_mask | no_list_key
                    rec = block_table.get(key) or new_blocks.get(key)
                    if rec is None:
                        rec = new_blocks[key] = BlockRecord(lge=head & m_mask, edges=None)
                        if has_list:
                            name_starts.append(at)
                            name_counts.append(cnt)
                            listed.append(rec)
                    per[blk] = rec
        lab.sections[ell] = sec
    for rec, run in zip(listed, read_each_run(r.data, name_starts, name_counts, width)):
        rec.edges = names.of(run)
    for (shares, present), run in zip(held, read_each_run(r.data, row_starts, row_counts,
                                                          row_bits)):
        keys = [(bit >> 1, bit & 1) for bit in range(present.bit_length())
                if present >> bit & 1]
        shares.update(zip(keys, (CodeShare(v & idx_mask, v >> wd.idx & share_mask, v >> b_at)
                                 for v in run)))
    entry_table.update(new_entries)
    block_table.update(new_blocks)
    return lab


def section_starts(lab, wd):
    """The bit at which each section of a decoded scheme-1 or scheme-2
    edge label starts, in file order, located from the label and the
    file's `Widths`."""
    def opts(sec):
        return sum(1 + (wd.pos if v is not None else 0) for v in (*sec.after_v, *sec.before_v))

    sqrt = isinstance(lab, SqrtEdgeLabel)
    at = 1 + 2 * wd.pos + wd.par + wd.h + (2 * wd.pos if lab.is_tree else 0)
    row_bits = wd.idx + 2 * wd.share
    for sec in lab.sections.values():
        yield at
        if not sqrt:
            at += 3 * wd.pos + opts(sec)
            at += sum(1 + wd.cap + len(seg.entries) * wd.names.width for seg in sec.segments)
            continue
        at += 3 * wd.pos + wd.unit + wd.m
        at += sum(wd.names.width + 2 * wd.unit + wd.present + len(ent.shares) * row_bits
                  for ent in sec.reveal)
        if lab.is_tree:
            at += opts(sec) + 2 * wd.unit
            at += sum(wd.m + 1 + (0 if rec.edges is None
                                  else wd.m + len(rec.edges) * wd.names.width)
                      for per in sec.near.values() for rec in per.values())
