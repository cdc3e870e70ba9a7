"""Level-minimum spanning forest, Euler tours of level trees, and the
weighted-tour machinery (weights, distances, balls, dyadic intervals)."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .graph import Graph, UnionFind
from .hierarchy import EdgeLevelAssignment

# tour elements: ("v", vertex) or ("e", u, v) for the oriented edge u->v
VertexElem = tuple[str, int]
EdgeElem = tuple[str, int, int]


def _isqrt_ceil(num: int, den: int) -> int:
    """Smallest r >= 1 with r*r >= num/den."""
    r = 0
    while r * r * den < num:
        r += 1
    return max(r, 1)


def _log2_ceil_frac(num: int, den: int) -> int:
    """Smallest j >= 0 with 2^j >= num/den."""
    j = 0
    while (1 << j) * den < num:
        j += 1
    return j


@dataclass
class TreeTour:
    """Euler tour of one level-l tree as a subsequence of Euler(T*)."""

    level: int
    tree_id: int                      # master position of the first element
    positions: list[int]              # ascending master positions
    vertices: set[int]
    local_of: dict[int, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.local_of:
            self.local_of = {p: i for i, p in enumerate(self.positions)}

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
        self.comp_span: list[tuple[int, int]] = []
        self.comp_of: list[int] = [-1] * g.n
        self._build_tour()
        self._tree_cache: dict[int, dict[int, TreeTour]] = {}
        self._tree_of_cache: dict[int, list[int]] = {}
        self._level_edge_cache: dict[int, list[int]] = {}
        self._level_edges_by_tree_cache: dict[int, dict[int, list[int]]] = {}
        self._edges_upto_cache: dict[int, dict[int, list[int]]] = {}

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
        children: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        adj_tree: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for eid in self.tstar:
            u, v = g.edges[eid]
            adj_tree[u].append((v, eid))
            adj_tree[v].append((u, eid))
        seen = [False] * g.n
        comp_idx = 0
        for root in range(g.n):
            if seen[root]:
                continue
            start = len(self.tour)
            self.comp_roots.append(root)
            # iterative DFS, children in ascending vertex id order
            seen[root] = True
            self.comp_of[root] = comp_idx
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
                    self.comp_of[v] = comp_idx
                    self.parent[v] = u
                    self.parent_edge[v] = eid
                    children[u].append((v, eid))
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
            self.comp_span.append((start, len(self.tour) - 1))
            comp_idx += 1
        self.children = children

    # -- level trees ---------------------------------------------------

    def tree_assignment(self, ell: int) -> list[int]:
        """For each vertex, the id (root tour position) of its level-l tree."""
        got = self._tree_of_cache.get(ell)
        if got is not None:
            return got
        g = self.graph
        uf = UnionFind(g.n)
        for eid in self.tstar:
            if self.levels.level[eid] <= ell:
                u, v = g.edges[eid]
                uf.union(u, v)
        tree_of = [0] * g.n
        rep_pos: dict[int, int] = {}
        for v in range(g.n):
            r = uf.find(v)
            p = rep_pos.get(r)
            if p is None or self.pos_vertex[v] < p:
                rep_pos[r] = min(self.pos_vertex[v], p) if p is not None else self.pos_vertex[v]
        for v in range(g.n):
            tree_of[v] = rep_pos[uf.find(v)]
        self._tree_of_cache[ell] = tree_of
        return tree_of

    def trees_at(self, ell: int) -> dict[int, TreeTour]:
        got = self._tree_cache.get(ell)
        if got is not None:
            return got
        tree_of = self.tree_assignment(ell)
        groups: dict[int, TreeTour] = {}
        for pos, elem in enumerate(self.tour):
            if elem[0] == "v":
                tid = tree_of[elem[1]]
            else:
                eid = self.parent_edge[elem[2]] if self.parent[elem[2]] == elem[1] else self.parent_edge[elem[1]]
                if self.levels.level[eid] > ell:
                    continue
                tid = tree_of[elem[1]]
            t = groups.get(tid)
            if t is None:
                t = TreeTour(level=ell, tree_id=tid, positions=[], vertices=set(), local_of={})
                groups[tid] = t
            t.positions.append(pos)
            if elem[0] == "v":
                t.vertices.add(elem[1])
        for t in groups.values():
            t.local_of = {p: i for i, p in enumerate(t.positions)}
        self._tree_cache[ell] = groups
        return groups

    def level_nontree_edges(self, ell: int) -> list[int]:
        got = self._level_edge_cache.get(ell)
        if got is None:
            got = [
                e
                for e in range(self.graph.m)
                if self.levels.level[e] == ell and e not in self.tstar
            ]
            self._level_edge_cache[ell] = got
        return got

    def level_edges_by_tree(self, ell: int) -> dict[int, list[int]]:
        """Level-l non-tree edges grouped by their level tree."""
        got = self._level_edges_by_tree_cache.get(ell)
        if got is None:
            tree_of = self.tree_assignment(ell)
            got = {}
            for e in self.level_nontree_edges(ell):
                got.setdefault(tree_of[self.graph.edges[e][0]], []).append(e)
            self._level_edges_by_tree_cache[ell] = got
        return got

    def edges_upto_by_tree(self, ell: int) -> dict[int, list[int]]:
        """All edges of level <= l grouped by their level-l tree."""
        got = self._edges_upto_cache.get(ell)
        if got is None:
            tree_of = self.tree_assignment(ell)
            got = {}
            for e in range(self.graph.m):
                if self.levels.level[e] <= ell:
                    got.setdefault(tree_of[self.graph.edges[e][0]], []).append(e)
            self._edges_upto_cache[ell] = got
        return got


class WeightedTour:
    """Weights, unit indices, and dyadic partitions for one level tree.

    wt(v) = 1 iff v is incident to a level-l non-tree edge; oriented tree
    edges weigh 0.  The total weight is padded to a power of two with
    virtual trailing dummy units; dummies never appear in vertex output.
    """

    def __init__(self, frame: EulerFrame, tree: TreeTour, f: int, phi: Fraction):
        self.frame = frame
        self.tree = tree
        self.f = f
        self.phi = phi
        ell = tree.level
        g = frame.graph
        incident: set[int] = set()
        self.level_edges: list[int] = list(
            frame.level_edges_by_tree(ell).get(tree.tree_id, ())
        )
        for e in self.level_edges:
            u, v = g.edges[e]
            incident.add(u)
            incident.add(v)
        self.wt: list[int] = []
        for pos in tree.positions:
            elem = frame.tour[pos]
            self.wt.append(1 if elem[0] == "v" and elem[1] in incident else 0)
        # prefix[i] = total weight of elements strictly before local index i
        self.prefix: list[int] = [0]
        for w in self.wt:
            self.prefix.append(self.prefix[-1] + w)
        self.W_real = self.prefix[-1]
        w = max(self.W_real, 1)
        self.W = 1 << (w - 1).bit_length()
        num = f * phi.denominator
        den = phi.numerator
        self.r = _isqrt_ceil(num, den)
        self.j_max = _log2_ceil_frac(num, den)
        self.j_top = min(self.j_max, self.W.bit_length() - 1)

    # units ------------------------------------------------------------

    def unit_of_local(self, i: int) -> int:
        """Prefix weight before local element i (the unit it lies in)."""
        return self.prefix[i]

    def unit_of_pos(self, pos: int) -> int:
        return self.prefix[self.tree.local_of[pos]]

    def vertex_unit(self, v: int) -> int:
        """Unit of a weight-1 vertex (its prefix count)."""
        return self.prefix[self.tree.local_of[self.frame.pos_vertex[v]]]

    # distance and balls -------------------------------------------------

    def dist(self, pos_a: int, pos_b: int) -> int:
        """Weight strictly between two elements of this tour."""
        ia = self.tree.local_of[pos_a]
        ib = self.tree.local_of[pos_b]
        if ia > ib:
            ia, ib = ib, ia
        return self.prefix[ib] - self.prefix[ia + 1]

    def ball_element(self, pos: int, r: int) -> set[int]:
        """Vertices of the tree within weighted distance r of the element."""
        tree = self.tree
        i = tree.local_of.get(pos)
        if i is None:
            raise ValueError(f"element at position {pos} is not on this tour")
        lo_bound = self.prefix[i] - r          # need prefix[j+1] >= prefix[i]-r
        hi_bound = self.prefix[i + 1] + r      # need prefix[j]  <= prefix[i+1]+r
        out: set[int] = set()
        j = i
        while j >= 0 and self.prefix[j + 1] >= lo_bound:
            elem = self.frame.tour[tree.positions[j]]
            if elem[0] == "v":
                out.add(elem[1])
            j -= 1
        j = i + 1
        n_el = len(tree.positions)
        while j < n_el and self.prefix[j] <= hi_bound:
            elem = self.frame.tour[tree.positions[j]]
            if elem[0] == "v":
                out.add(elem[1])
            j += 1
        return out

    def ball_edge(self, eid: int, r: int) -> set[int]:
        """Ball of an edge: both oriented occurrences for a tree edge,
        both endpoint vertices for a non-tree edge."""
        g = self.frame.graph
        u, v = g.edges[eid]
        if eid in self.frame.tstar:
            if self.frame.parent[v] == u:
                c = v
            elif self.frame.parent[u] == v:
                c = u
            else:
                raise ValueError(f"edge {eid} not oriented in T*")
            p = self.frame.parent[c]
            down = self.frame.pos_oedge[(p, c)]
            up = self.frame.pos_oedge[(c, p)]
            return self.ball_element(down, r) | self.ball_element(up, r)
        return self.ball_element(self.frame.pos_vertex[u], r) | self.ball_element(
            self.frame.pos_vertex[v], r
        )

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

    def block_of_unit(self, unit: int, j: int) -> int:
        return unit >> j

    def block_range(self, j: int, k: int) -> tuple[int, int]:
        """Half-open unit range of block k at scale j."""
        return k << j, (k + 1) << j

    def real_weight(self, a: int, b: int) -> int:
        """Real (non-dummy) weight of the unit range [a, b)."""
        return max(0, min(b, self.W_real) - max(a, 0))

    def nearest_blocks(self, unit_c: int, j: int) -> tuple[int | None, int | None]:
        """Nearest scale-j blocks strictly left/right of an element that sits
        inside unit unit_c (blocks not containing the element)."""
        k = unit_c >> j
        left = k - 1 if k - 1 >= 0 else None
        right = k + 1 if k + 1 < self.blocks_at(j) else None
        return left, right


def ball(frame: EulerFrame, wtour: WeightedTour, alpha, r: int) -> set[int]:
    """Vertices of the level tree within weighted distance r of alpha.

    alpha is either a tour position of an element on this tree's tour, or
    ("edge", edge id) for the two-case edge overload.
    """
    if isinstance(alpha, tuple) and alpha and alpha[0] == "edge":
        return wtour.ball_edge(alpha[1], r)
    return wtour.ball_element(alpha, r)


def dyadic_cover(wtour: WeightedTour, a: int, b: int) -> list[tuple[int, int]]:
    """Partition the aligned unit range [a, b) into canonical blocks
    (scale, index) drawn from the families I_0..I_{j_top}.

    Greedy canonical decomposition: ascending anchored blocks, middle
    filled at the top scale, descending at the right end.
    """
    if not (0 <= a <= b <= wtour.W):
        raise ValueError(f"interval [{a}, {b}) not within the padded tour")
    out: list[tuple[int, int]] = []
    cur = a
    while cur < b:
        j = wtour.j_top
        # largest scale aligned at cur and fitting within [cur, b)
        while j > 0 and ((cur & ((1 << j) - 1)) != 0 or cur + (1 << j) > b):
            j -= 1
        out.append((j, cur >> j))
        cur += 1 << j
    return out


def tours_for_level(
    frame: EulerFrame, ell: int, f: int, phi: Fraction
) -> dict[int, WeightedTour]:
    return {
        tid: WeightedTour(frame, tree, f, phi)
        for tid, tree in frame.trees_at(ell).items()
    }
