"""Level-minimum spanning forest, Euler tours of level trees, and the
weighted-tour machinery (weights, distances, balls, dyadic intervals).

`EulerFrame.trees_at(l)` is the one place that splits a level into its
trees: each `TreeTour` carries the tree's tour positions, its vertex
positions, its edges of level <= l, its level-l non-tree edges and their
endpoint events, and the label builders read all of them from there."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .graph import Graph, UnionFind
from .hierarchy import EdgeLevelAssignment

# tour elements: ("v", vertex) or ("e", u, v) for the oriented edge u->v
VertexElem = tuple[str, int]
EdgeElem = tuple[str, int, int]


def radius_scale(f: int, phi: Fraction) -> tuple[int, int]:
    """(r, j_max): the ball radius, the smallest r >= 1 with r*r >= f/phi,
    and the top scale, the smallest j >= 0 with 2^j >= f/phi."""
    c = max(-(-f * phi.denominator // phi.numerator) - 1, 0)  # ceil(f/phi) - 1
    return isqrt(c) + 1, c.bit_length()


def padded_scales(w_real: int, j_max: int) -> tuple[int, int]:
    """(W, j_top): a tour weight padded to a power of two, and the top
    scale of its dyadic blocks, at most j_max."""
    W = 1 << (max(w_real, 1) - 1).bit_length()
    return W, min(j_max, W.bit_length() - 1)


@dataclass
class TreeTour:
    """One level-l tree: its Euler tour as a subsequence of Euler(T*), and
    the edges the label builders read from it."""

    level: int
    tree_id: int                      # master position of the first element
    positions: list[int] = field(default_factory=list)         # ascending
    vertex_positions: list[int] = field(default_factory=list)  # ascending
    edges: list[int] = field(default_factory=list)        # level <= l, by id
    level_edges: list[int] = field(default_factory=list)  # level-l non-tree, by id
    # (position, edge id) per endpoint of a level edge, ascending
    events: list[tuple[int, int]] = field(default_factory=list)
    local_of: dict[int, int] = field(repr=False, default_factory=dict)

    @property
    def span(self) -> tuple[int, int]:
        return self.positions[0], self.positions[-1]


class EulerFrame:
    """T*, DFS numbering (tour positions), and per-level tree tours.

    T* is the minimum spanning forest with respect to the level function
    (ties by edge id).  Each component is rooted at its smallest vertex
    id, children are visited in ascending vertex id order, and the
    per-component tours are concatenated in root order.
    """

    def __init__(self, g: Graph, levels: EdgeLevelAssignment):
        self.graph = g
        self.levels = levels
        self.tstar = self._min_spanning_forest()
        self.tour: list[tuple] = []
        self.pos_vertex: list[int] = [-1] * g.n
        self.pos_oedge: dict[tuple[int, int], int] = {}
        self.parent: list[int] = [-1] * g.n
        self.parent_edge: list[int] = [-1] * g.n
        self.comp_roots: list[int] = []
        self._build_tour()
        self._tree_cache: dict[int, dict[int, TreeTour]] = {}

    # -- construction -------------------------------------------------

    def _min_spanning_forest(self) -> frozenset[int]:
        order = sorted(range(self.graph.m), key=lambda e: (self.levels.level[e], e))
        uf = UnionFind(self.graph.n)
        chosen = set()
        for eid in order:
            u, v = self.graph.edges[eid]
            if uf.union(u, v):
                chosen.add(eid)
        return frozenset(chosen)

    def _build_tour(self):
        g = self.graph
        adj_tree: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for eid in self.tstar:
            u, v = g.edges[eid]
            adj_tree[u].append((v, eid))
            adj_tree[v].append((u, eid))
        seen = [False] * g.n
        for root in range(g.n):
            if seen[root]:
                continue
            self.comp_roots.append(root)
            # iterative DFS, children in ascending vertex id order
            seen[root] = True
            self.pos_vertex[root] = len(self.tour)
            self.tour.append(("v", root))
            stack = [(root, iter(sorted(adj_tree[root])))]
            while stack:
                u, it = stack[-1]
                advanced = False
                for v, eid in it:
                    if seen[v]:
                        continue
                    seen[v] = True
                    self.parent[v] = u
                    self.parent_edge[v] = eid
                    self.pos_oedge[(u, v)] = len(self.tour)
                    self.tour.append(("e", u, v))
                    self.pos_vertex[v] = len(self.tour)
                    self.tour.append(("v", v))
                    stack.append((v, iter(sorted(adj_tree[v]))))
                    advanced = True
                    break
                if not advanced:
                    stack.pop()
                    if stack:
                        p = stack[-1][0]
                        self.pos_oedge[(u, p)] = len(self.tour)
                        self.tour.append(("e", u, p))

    # -- level trees ---------------------------------------------------

    def tree_assignment(self, ell: int) -> list[int]:
        """For each vertex, the id of its level-l tree: the tour position of
        the tree's top vertex, which the tour reaches first."""
        level, parent, parent_edge = self.levels.level, self.parent, self.parent_edge
        tree_of = [0] * self.graph.n
        for pos, elem in enumerate(self.tour):
            if elem[0] == "v":
                v = elem[1]
                p = parent[v]
                tree_of[v] = tree_of[p] if p != -1 and level[parent_edge[v]] <= ell else pos
        return tree_of

    def trees_at(self, ell: int) -> dict[int, TreeTour]:
        """The level-l trees by id, each with its tour, vertex positions,
        edges, level edges and events; computed once per level."""
        got = self._tree_cache.get(ell)
        if got is not None:
            return got
        level = self.levels.level
        tree_of = self.tree_assignment(ell)
        trees: dict[int, TreeTour] = {}
        for pos, elem in enumerate(self.tour):
            if elem[0] == "e":
                u, v = elem[1], elem[2]
                eid = self.parent_edge[v] if self.parent[v] == u else self.parent_edge[u]
                if level[eid] > ell:
                    continue
            tid = tree_of[elem[1]]
            t = trees.get(tid)
            if t is None:
                t = trees[tid] = TreeTour(level=ell, tree_id=tid)
            t.positions.append(pos)
            if elem[0] == "v":
                t.vertex_positions.append(pos)
        # an edge of level <= l joins two vertices of one level-l tree
        for eid, (u, v) in enumerate(self.graph.edges):
            if level[eid] <= ell:
                t = trees[tree_of[u]]
                t.edges.append(eid)
                if level[eid] == ell and eid not in self.tstar:
                    t.level_edges.append(eid)
                    t.events += ((self.pos_vertex[u], eid), (self.pos_vertex[v], eid))
        for t in trees.values():
            t.events.sort()
            t.local_of = {p: i for i, p in enumerate(t.positions)}
        self._tree_cache[ell] = trees
        return trees


class WeightedTour:
    """Weights, unit indices, and dyadic partitions for one level tree.

    wt(v) = 1 iff v is incident to a level-l non-tree edge; oriented tree
    edges weigh 0.  The total weight is padded to a power of two with
    virtual trailing dummy units; dummies never appear in vertex output.
    """

    def __init__(self, frame: EulerFrame, tree: TreeTour, f: int, phi: Fraction):
        self.frame = frame
        self.tree = tree
        incident = {p for p, _ in tree.events}
        self.wt: list[int] = [1 if p in incident else 0 for p in tree.positions]
        # prefix[i] = total weight of elements strictly before local index i
        self.prefix: list[int] = [0]
        for w in self.wt:
            self.prefix.append(self.prefix[-1] + w)
        self.W_real = self.prefix[-1]
        self.r, self.j_max = radius_scale(f, phi)
        self.W, self.j_top = padded_scales(self.W_real, self.j_max)
        # unit of each endpoint of a level edge
        self.units: dict[int, int] = {v: self.vertex_unit(v)
                                      for e in tree.level_edges for v in frame.graph.edges[e]}

    # units ------------------------------------------------------------

    def unit_of_pos(self, pos: int) -> int:
        return self.prefix[self.tree.local_of[pos]]

    def vertex_unit(self, v: int) -> int:
        """Unit of a weight-1 vertex (its prefix count)."""
        return self.prefix[self.tree.local_of[self.frame.pos_vertex[v]]]

    # balls ---------------------------------------------------------------

    def ball_units(self, pos: int, r: int) -> tuple[int, int]:
        """Closed unit range [lo, hi] of weight-1 vertices within distance r
        of the element at the given position."""
        i = self.tree.local_of[pos]
        c = self.prefix[i]
        if self.wt[i]:
            return c - r - 1, c + r + 1
        return c - r - 1, c + r

    # dyadic partitions ----------------------------------------------------

    def blocks_at(self, j: int) -> int:
        """Number of scale-j blocks in the padded tour."""
        return self.W >> j


def dyadic_cover(a: int, b: int, j_top: int) -> list[tuple[int, int]]:
    """Partition the unit range [a, b) into canonical blocks
    (scale, index) drawn from the families I_0..I_{j_top}.

    Greedy canonical decomposition: ascending anchored blocks, middle
    filled at the top scale, descending at the right end.
    """
    out: list[tuple[int, int]] = []
    cur = a
    while cur < b:
        j = j_top
        # largest scale aligned at cur and fitting within [cur, b)
        while j > 0 and ((cur & ((1 << j) - 1)) != 0 or cur + (1 << j) > b):
            j -= 1
        out.append((j, cur >> j))
        cur += 1 << j
    return out

