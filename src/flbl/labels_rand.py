"""Randomized edge-fault labeling schemes.

Long scheme (3): per-edge uniformly random XOR sketches of f + c log n
bits; subtree aggregates cancel to the cut XOR, and components of G - F
are recovered by GF(2) elimination over the fault-split tree regions.

Short scheme (4): a log^2 n-bit XOR sketch plus an l0 cut-sketch matrix
of rank-bucketed edge uids, queried with probabilistic Boruvka rounds
and finished with the same elimination on the XOR sketch.  The two
schemes share one build and one query: scheme 3 is scheme 4 with no
sketch matrix and zero Boruvka rounds.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import Graph
from .labels_simple import SchemeMeta

SIG_C_DEFAULT = 4


def _bits(n: int) -> int:
    return max(1, (max(n, 2) - 1).bit_length())


# ---------------------------------------------------------------------------
# spanning structure shared by both schemes


class BfsForest:
    """BFS spanning forest with preorder numbering, smallest-id roots."""

    def __init__(self, g: Graph):
        self.graph = g
        n = g.n
        self.parent = [-1] * n
        self.parent_edge = [-1] * n
        self.order: list[int] = []
        self.comp_roots: list[int] = []
        # children in ascending id order: BFS meets them in sorted adjacency
        kids: list[list[int]] = [[] for _ in range(n)]
        seen = [False] * n
        for root in range(n):
            if seen[root]:
                continue
            self.comp_roots.append(root)
            seen[root] = True
            queue = [root]
            for x in queue:  # the loop also visits what it appends
                for y, eid in sorted(g.adjacency[x]):
                    if not seen[y]:
                        seen[y] = True
                        self.parent[y] = x
                        self.parent_edge[y] = eid
                        kids[x].append(y)
                        queue.append(y)
            stack = [root]
            while stack:
                x = stack.pop()
                self.order.append(x)
                stack.extend(reversed(kids[x]))
        self.pre = [0] * n
        for i, v in enumerate(self.order):
            self.pre[v] = i
        self.size = [1] * n
        for v in reversed(self.order):
            if self.parent[v] != -1:
                self.size[self.parent[v]] += self.size[v]
        self.tree_edges = {e for e in self.parent_edge if e != -1}
        self.comp_pre_starts = [self.pre[r] for r in self.comp_roots]

    def subtree_range(self, v: int) -> tuple[int, int]:
        return self.pre[v], self.pre[v] + self.size[v] - 1


def _edge_bits(seed: int, tag: str, eid: int, nbits: int) -> int:
    return random.Random(f"{seed}:{tag}:{eid}").getrandbits(nbits)


# ---------------------------------------------------------------------------
# singleton detection (Sample distinguisher, uid, signature)


def sample_bit(a: int, t: int, x: int, w: int) -> int:
    """1 iff a*x mod 2^w < t; a must be odd."""
    if a % 2 == 0:
        raise ValueError("distinguisher multiplier must be odd")
    return 1 if (a * x) % (1 << w) < t else 0


@dataclass
class SingletonSeed:
    w: int
    pairs: list[tuple[int, int]]  # (a odd, t)

    def __post_init__(self):
        if any(a % 2 == 0 for a, _ in self.pairs):
            raise ValueError("distinguisher multiplier must be odd")

    @staticmethod
    def generate(seed: int, n: int, c: int = SIG_C_DEFAULT) -> "SingletonSeed":
        w = 2 * _bits(n)
        rng = random.Random(f"{seed}:sig")
        pairs = []
        for _ in range(c * _bits(n)):
            a = rng.getrandbits(w) | 1
            t = rng.getrandbits(w)
            pairs.append((a, t))
        return SingletonSeed(w=w, pairs=pairs)

    @property
    def sig_bits(self) -> int:
        return len(self.pairs)

    def sig(self, x: int) -> int:
        """Bit i is sample_bit(a_i, t_i, x, w), inlined: a query tests
        thousands of signatures."""
        mask = (1 << self.w) - 1
        out = 0
        bit = 1
        for a, t in self.pairs:
            if a * x & mask < t:
                out |= bit
            bit <<= 1
        return out

    def uid(self, x: int) -> int:
        """uid(x) = (x, Sig(x)) packed with the name in the low bits."""
        return (self.sig(x) << self.w) | x

    @property
    def uid_bits(self) -> int:
        return self.w + self.sig_bits

    def singleton(self, agg: int) -> int | None:
        """Recover the packed name when agg is the uid of one edge; an
        aggregate of several uids is rejected unless its signature happens
        to match (probability bounded by the distinguisher analysis)."""
        if agg == 0:
            return None
        x = agg & ((1 << self.w) - 1)
        sig = agg >> self.w
        if self.sig(x) == sig:
            return x
        return None


# ---------------------------------------------------------------------------
# labels and build


@dataclass
class RandEdgeLabel:
    is_tree: bool
    lo: int                    # subtree pre-min (tree) or pre(u) (non-tree)
    hi: int                    # subtree pre-max (tree) or pre(v) (non-tree)
    sk0: int                   # cut aggregate (tree) or edge sketch
    skmat: int = 0             # short scheme only: packed sketch matrix


@dataclass
class RandMeta(SchemeMeta):
    c: int = SIG_C_DEFAULT
    short: bool = False
    B: int = 0                 # Boruvka rounds: 0 in the long scheme
    jcols: int = 0

    @property
    def sk0_bits(self) -> int:
        if self.short:
            return _bits(self.n) ** 2
        return self.f + self.c * _bits(self.n)

    def sig_seed(self) -> SingletonSeed:
        return SingletonSeed.generate(self.seed, self.n, self.c)


def short_regime_ok(n: int, f: int) -> bool:
    return f >= 2 * _bits(n) ** 2


def _boruvka_params(n: int, f: int) -> int:
    """B, the number of Boruvka rounds of the short scheme."""
    lg2 = _bits(n) ** 2
    return max(1, math.ceil(math.log2(max(f / max(lg2, 1), 2))) + 3)


def _jcols(m: int) -> int:
    """jcols, the rank columns per Boruvka round of the short scheme."""
    return max(1, _bits(max(m, 2))) + 2


def rank_of(seed: int, i: int, eid: int, jcols: int) -> int:
    """Geometric rank, Pr(rank = j) = 2^-j, capped at jcols."""
    rng = random.Random(f"{seed}:rank:{i}:{eid}")
    j = 1
    while j < jcols and rng.getrandbits(1):
        j += 1
    return j


def _build_rand(g: Graph, f: int, seed: int, c: int, short: bool):
    """Each non-tree edge gets a random sk0 sketch and, in the short
    scheme, its uid in one rank-chosen cell per Boruvka round; a tree
    edge stores the XOR of both over its child's subtree."""
    forest = BfsForest(g)
    B = _boruvka_params(g.n, f) if short else 0
    jcols = _jcols(g.m) if short else 0
    meta = RandMeta(
        n=g.n, aux_n=g.n, m=g.m, f=f, phi=Fraction(1, 2), h=1,
        comp_roots=forest.comp_pre_starts, seed=seed, c=c, short=short,
        B=B, jcols=jcols,
    )
    tag = "sk0s" if short else "sk0"
    nbits = meta.sk0_bits
    if B:
        sig = meta.sig_seed()
        cell = sig.uid_bits
        nb = _bits(g.n)
    sk_edge = [0] * g.m
    mat_edge = [0] * g.m
    # subtree aggregates: per-vertex star XOR, then a bottom-up pass
    sub0 = [0] * g.n
    subm = [0] * g.n
    for eid, (u, v) in enumerate(g.edges):
        if eid in forest.tree_edges:
            continue
        sk = sk_edge[eid] = _edge_bits(seed, tag, eid, nbits)
        sub0[u] ^= sk
        sub0[v] ^= sk
        if B:
            a, b = sorted((forest.pre[u], forest.pre[v]))
            uid = sig.uid((a << nb) | b)
            mat = 0
            for i in range(B):
                mat |= uid << ((i * jcols + rank_of(seed, i, eid, jcols) - 1) * cell)
            mat_edge[eid] = mat
            subm[u] ^= mat
            subm[v] ^= mat
    for v in reversed(forest.order):
        p = forest.parent[v]
        if p != -1:
            sub0[p] ^= sub0[v]
            subm[p] ^= subm[v]
    labels = []
    for eid, (u, v) in enumerate(g.edges):
        if eid in forest.tree_edges:
            child = v if forest.parent[v] == u else u
            lo, hi = forest.subtree_range(child)
            labels.append(RandEdgeLabel(is_tree=True, lo=lo, hi=hi,
                                        sk0=sub0[child], skmat=subm[child]))
        else:
            labels.append(RandEdgeLabel(is_tree=False, lo=forest.pre[u], hi=forest.pre[v],
                                        sk0=sk_edge[eid], skmat=mat_edge[eid]))
    vertex_labels = [forest.subtree_range(v) for v in range(g.n)]
    return vertex_labels, labels, meta


def build_rand_long(g: Graph, f: int, seed: int, c: int = SIG_C_DEFAULT):
    return _build_rand(g, f, seed, c, short=False)


def build_rand_short(g: Graph, f: int, seed: int, c: int = SIG_C_DEFAULT):
    if not short_regime_ok(g.n, f):
        raise ValueError(
            f"short scheme needs f >= 2 log^2 n = {2 * _bits(g.n) ** 2}; route "
            "small f to the long scheme"
        )
    return _build_rand(g, f, seed, c, short=True)


# ---------------------------------------------------------------------------
# query


class _Regions:
    """Fault-split regions of the spanning forest, from fault labels.

    Region ids: 0..k-1 for the child-subtree ranges of the k tree faults in
    edge-id order, k + ci for the root region of component ci.  Subtree
    ranges of one forest are laminar, so one sweep over them sorted by
    (lo, -hi) gives each range's parent and the deepest range over each
    elementary segment of preorder: a lookup is one bisect."""

    def __init__(self, records: dict[int, RandEdgeLabel], comp_starts: list[int]):
        self.ranges: list[tuple[int, int]] = [
            (lab.lo, lab.hi) for _, lab in sorted(records.items()) if lab.is_tree]
        self.comp_starts = comp_starts
        self.k = len(self.ranges)
        self.parent: list[int] = [0] * self.k   # region just above range i
        # elementary segments of preorder, ascending, and the deepest range
        # over each (-1 for none); of equal starts the last one holds
        self.seg_starts: list[int] = []
        self.seg_owner: list[int] = []
        stack: list[int] = []   # the open ranges, deepest last

        def segment(start: int) -> None:
            self.seg_starts.append(start)
            self.seg_owner.append(stack[-1] if stack else -1)

        for i in sorted(range(self.k), key=lambda i: (self.ranges[i][0], -self.ranges[i][1])):
            lo, hi = self.ranges[i]
            if lo > hi:
                raise ValueError(f"tree fault range {lo}..{hi} is reversed")
            while stack and self.ranges[stack[-1]][1] < lo:
                segment(self.ranges[stack.pop()][1] + 1)
            if stack:
                top_lo, top_hi = self.ranges[stack[-1]]
                if (top_lo, top_hi) == (lo, hi) or hi > top_hi:
                    raise ValueError(f"tree fault ranges {top_lo}..{top_hi} and "
                                     f"{lo}..{hi} are not nested or disjoint")
                self.parent[i] = stack[-1]
            else:
                self.parent[i] = self.k + self.comp_of_pre(lo)
            stack.append(i)
            segment(lo)
        while stack:
            segment(self.ranges[stack.pop()][1] + 1)

    def comp_of_pre(self, pre: int) -> int:
        return bisect_right(self.comp_starts, pre) - 1

    def region_of(self, pre: int) -> int:
        j = bisect_right(self.seg_starts, pre) - 1
        if j < 0 or self.seg_owner[j] < 0:
            return self.k + self.comp_of_pre(pre)
        return self.seg_owner[j]

    def all_region_ids(self, records) -> list[int]:
        ids = set(range(self.k))
        for i in range(self.k):
            ids.add(self.parent[i])
        for eid, lab in records.items():
            if not lab.is_tree:
                ids.add(self.region_of(lab.lo))
                ids.add(self.region_of(lab.hi))
        return sorted(ids)


def _null_space_classes(vectors: dict[int, int]) -> dict[int, tuple]:
    """Group region ids by their pattern across a GF(2) null-space basis
    of the aggregate vectors (zero-XOR subsets <=> unions of components)."""
    ids = sorted(vectors)
    rows = []
    for pos, i in enumerate(ids):
        rows.append((vectors[i], 1 << pos))
    pivots: list[tuple[int, int]] = []
    null_markers: list[int] = []
    for vec, marker in rows:
        for pv, pm in pivots:
            if vec ^ pv < vec:
                vec ^= pv
                marker ^= pm
        if vec == 0:
            null_markers.append(marker)
        else:
            pivots.append((vec, marker))
            pivots.sort(key=lambda t: -t[0])
    patterns: dict[int, tuple] = {}
    for pos, i in enumerate(ids):
        patterns[i] = tuple((mk >> pos) & 1 for mk in null_markers)
    return patterns


@dataclass
class RandQueryResult:
    meta: RandMeta
    regions: _Regions
    class_by_region: dict[int, tuple]
    part_history: list[int] = field(default_factory=list)

    def class_of(self, lv: tuple[int, int]):
        pre = lv[0]
        rid = self.regions.region_of(pre)
        if rid in self.class_by_region:
            return ("r", self.class_by_region[rid])
        return ("c", self.regions.comp_of_pre(pre))

    def connected(self, lv_s, lv_t) -> bool:
        return self.class_of(lv_s) == self.class_of(lv_t)

    def component_count(self) -> int:
        n_comps = len(self.regions.comp_starts)
        touched_comps = set()
        classes = set()
        for rid, cl in self.class_by_region.items():
            classes.add(cl)
            if rid >= self.regions.k:
                touched_comps.add(rid - self.regions.k)
            else:
                touched_comps.add(
                    self.regions.comp_of_pre(self.regions.ranges[rid][0])
                )
        return len(classes) + n_comps - len(touched_comps)


def _region_aggregates(records, regions: _Regions, attr: str) -> dict[int, int]:
    """sk_{E-F} aggregates per region: tree-fault subtree sketches XORed
    into both sides, then non-tree faults removed from their cut."""
    agg: dict[int, int] = {i: 0 for i in regions.all_region_ids(records)}
    i = 0  # tree faults in edge-id order are subtree regions 0, 1, ...
    for eid, lab in sorted(records.items()):
        if lab.is_tree:
            sk = getattr(lab, attr)
            agg[i] ^= sk
            agg[regions.parent[i]] ^= sk
            i += 1
        else:
            ra = regions.region_of(lab.lo)
            rb = regions.region_of(lab.hi)
            if ra != rb:
                sk = getattr(lab, attr)
                agg[ra] ^= sk
                agg[rb] ^= sk
    return agg


def query_rand_short(records: dict[int, RandEdgeLabel], meta: RandMeta) -> RandQueryResult:
    """Components of G - F from the fault labels alone: meta.B Boruvka
    rounds on the sketch matrix merge regions, then GF(2) elimination on
    the sk0 sketches groups the parts left.  The long scheme has B = 0."""
    if len(records) > meta.f:
        raise ValueError(f"fault set of size {len(records)} exceeds f={meta.f}")
    regions = _Regions(records, meta.comp_roots)
    sk0 = _region_aggregates(records, regions, "sk0")
    ids = sorted(sk0)
    uf = {i: i for i in ids}

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    if meta.B:
        mat = _region_aggregates(records, regions, "skmat")
        sig = meta.sig_seed()
        cell = sig.uid_bits
        cellmask = (1 << cell) - 1
        nb = _bits(meta.n)
    history = []
    for step in range(meta.B):
        # every part takes part: a closed one has all-zero cells and cannot
        # merge, and an sk0 of few bits can read 0 on an open cut
        parts = list(dict.fromkeys(find(i) for i in ids))
        history.append(len(parts))
        if len(parts) <= 1:
            break
        merges = []
        for p in parts:
            row = mat[p] >> (step * meta.jcols * cell)
            for j in range(meta.jcols):
                agg = (row >> (j * cell)) & cellmask
                x = sig.singleton(agg)
                if x is None:
                    continue
                pa, pb = x >> nb, x & ((1 << nb) - 1)
                ra, rb = regions.region_of(pa), regions.region_of(pb)
                if ra not in uf or rb not in uf:
                    continue
                fa, fb = find(ra), find(rb)
                if fa != fb:
                    merges.append((fa, fb))
                    break
        for fa, fb in merges:
            ra, rb = find(fa), find(fb)
            if ra == rb:
                continue
            uf[rb] = ra
            mat[ra] ^= mat[rb]
            sk0[ra] ^= sk0[rb]
    # final: group surviving parts by sk0 elimination
    patterns = _null_space_classes({p: sk0[p] for p in {find(i) for i in ids}})
    class_by_region = {i: patterns[find(i)] for i in ids}
    return RandQueryResult(
        meta=meta, regions=regions, class_by_region=class_by_region,
        part_history=history,
    )


# the long scheme's query is the short scheme's with zero Boruvka rounds
query_rand_long = query_rand_short
