"""Low-degree Steiner trees spanning tough sets, the exact toughness
oracle, and fault-tolerant sparsification by scan-first-search forests."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph
from .hierarchy import SizeCapError, _subset_components_cache, n_exact_cap, verify_vertex_expanding

INFINITE_TOUGHNESS = Fraction(-1)  # sentinel: X cannot be disconnected


@dataclass
class ToughnessCertificate:
    phi: Fraction                 # INFINITE_TOUGHNESS when no S disconnects X
    witness: list[int] | None     # minimizing separator, None when infinite

    @property
    def infinite(self) -> bool:
        return self.phi == INFINITE_TOUGHNESS

    def at_least(self, phi: Fraction) -> bool:
        return self.infinite or self.phi >= phi


def toughness(g: Graph, X: set[int] | frozenset[int]) -> ToughnessCertificate:
    """Exact toughness of X: min |S| / c_{G-S}(X) over separators S that
    split X into more than one component.  Brute force over all S."""
    n = g.n
    if n > n_exact_cap():
        raise SizeCapError(f"toughness needs n <= {n_exact_cap()}")
    comps = _subset_components_cache(g)
    xmask = 0
    for v in X:
        xmask |= 1 << v
    full = (1 << n) - 1
    best: Fraction | None = None
    best_s = None
    for s in range(1 << n):
        if s & xmask and bin(s & xmask).count("1") == bin(xmask).count("1"):
            continue  # S swallowed all of X; c counts X-components only
        w = full & ~s
        cnt = 0
        for part in comps(w):
            if part & xmask:
                cnt += 1
        if cnt <= 1:
            continue
        val = Fraction(bin(s).count("1"), cnt)
        if best is None or val < best:
            best = val
            best_s = [v for v in range(n) if (s >> v) & 1]
    if best is None:
        return ToughnessCertificate(phi=INFINITE_TOUGHNESS, witness=None)
    return ToughnessCertificate(phi=best, witness=best_s)


def expanding_implies_tough_check(g: Graph, X: set[int], phi: Fraction) -> bool:
    """Instance-level check of: X 3*phi-vertex-expanding => X phi-tough."""
    ok, _ = verify_vertex_expanding(g, X, 3 * phi)
    if not ok:
        return True  # premise fails; implication vacuous
    return toughness(g, X).at_least(phi)


@dataclass
class SteinerTree:
    edges: set[int]               # edge ids within g
    terminals: frozenset[int]
    blocking: frozenset[int]      # vertices of degree >= Delta - 1
    max_degree: int


def _initial_steiner(g: Graph, X: set[int]) -> set[int]:
    """BFS tree from the smallest terminal, pruned to terminal leaves."""
    root = min(X)
    parent_edge = {root: -1}
    order = [root]
    queue = [root]
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for y, eid in sorted(g.adjacency[x]):
            if y not in parent_edge:
                parent_edge[y] = eid
                order.append(y)
                queue.append(y)
    if not X <= set(parent_edge):
        raise ValueError("terminal set is not connected in the graph")
    edges = {parent_edge[v] for v in parent_edge if parent_edge[v] != -1}
    return _prune(g, edges, X)


def _prune(g: Graph, edges: set[int], X: set[int]) -> set[int]:
    deg: dict[int, int] = {}
    inc: dict[int, list[int]] = {}
    for eid in edges:
        u, v = g.edges[eid]
        for w in (u, v):
            deg[w] = deg.get(w, 0) + 1
            inc.setdefault(w, []).append(eid)
    removed: set[int] = set()
    changed = True
    while changed:
        changed = False
        for v, d in list(deg.items()):
            if d == 1 and v not in X:
                eid = next(e for e in inc[v] if e not in removed)
                removed.add(eid)
                u, w = g.edges[eid]
                deg[u] -= 1
                deg[w] -= 1
                deg.pop(v)
                changed = True
    return edges - removed


def _tree_components_without(g: Graph, edges: set[int], blocked: set[int]):
    uf: dict[int, int] = {}

    def find(x):
        uf.setdefault(x, x)
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    verts = set()
    for eid in edges:
        u, v = g.edges[eid]
        verts.update((u, v))
        if u not in blocked and v not in blocked:
            ru, rv = find(u), find(v)
            if ru != rv:
                uf[rv] = ru
    return {v: find(v) for v in verts if v not in blocked}


def _tree_path(g: Graph, edges: set[int], s: int, t: int) -> list[int]:
    adj: dict[int, list[tuple[int, int]]] = {}
    for eid in edges:
        u, v = g.edges[eid]
        adj.setdefault(u, []).append((v, eid))
        adj.setdefault(v, []).append((u, eid))
    prev: dict[int, tuple[int, int]] = {s: (-1, -1)}
    stack = [s]
    while stack:
        x = stack.pop()
        if x == t:
            break
        for y, eid in adj.get(x, ()):
            if y not in prev:
                prev[y] = (x, eid)
                stack.append(y)
    path = []
    cur = t
    while cur != s:
        p, eid = prev[cur]
        path.append(eid)
        cur = p
    return path


def low_degree_steiner(g: Graph, X: set[int] | list[int]) -> SteinerTree:
    """Local-improvement minimum-degree Steiner tree.

    Swaps a non-tree edge between two components of T - B (B = vertices of
    degree >= Delta - 1) against a path edge incident to a B-vertex, until
    no such edge exists.  At termination every leaf is a terminal, B has
    degree >= Delta - 1, and components of T - B equal those of G - B on
    terminals, which is exactly the residual-set interface the degree
    bound rests on.
    """
    X = set(X)
    if not X:
        raise ValueError("terminal set must be nonempty")
    if len(X) == 1:
        v = next(iter(X))
        return SteinerTree(edges=set(), terminals=frozenset(X),
                           blocking=frozenset(), max_degree=0)
    edges = _initial_steiner(g, X)
    seen_states: set[frozenset[int]] = set()
    guard = 0
    while True:
        guard += 1
        if guard > 50 * (g.n + g.m):
            raise RuntimeError("degree improvement failed to converge")
        deg: dict[int, int] = {}
        for eid in edges:
            u, v = g.edges[eid]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        delta = max(deg.values())
        blocked = {v for v, d in deg.items() if d >= delta - 1}
        comp = _tree_components_without(g, edges, blocked)
        tree_verts = set(deg)
        best = None
        for eid in range(g.m):
            if eid in edges:
                continue
            u, v = g.edges[eid]
            if u in blocked or v in blocked:
                continue
            if u not in tree_verts or v not in tree_verts:
                continue
            if comp.get(u) == comp.get(v):
                continue
            path = _tree_path(g, edges, u, v)
            cand = []
            for pe in path:
                a, b = g.edges[pe]
                for w in (a, b):
                    if w in blocked:
                        cand.append((deg[w], pe, w))
            if not cand:
                continue
            cand.sort(key=lambda t: (-t[0], t[1]))
            dmax, pe, w = cand[0]
            key = (-dmax, eid, pe)
            if best is None or key < best[0]:
                best = (key, eid, pe)
        if best is None:
            leaves = {v for v, d in deg.items() if d == 1}
            assert leaves <= X, "non-terminal leaf survived pruning"
            return SteinerTree(
                edges=set(edges), terminals=frozenset(X),
                blocking=frozenset(blocked), max_degree=delta,
            )
        _, add_e, rem_e = best
        edges = _prune(g, (edges - {rem_e}) | {add_e}, X)
        state = frozenset(edges)
        if state in seen_states:
            raise RuntimeError("degree improvement cycled")
        seen_states.add(state)


def ni_forests(g: Graph, d: int) -> list[set[int]]:
    """d edge-disjoint scan-first-search (BFS) forests, each a maximal
    spanning forest of the graph left by its predecessors."""
    if d < 1:
        raise ValueError("d must be at least 1")
    pair_seen: set[tuple[int, int]] = set()
    for (u, v) in g.edges:
        key = (min(u, v), max(u, v))
        if key in pair_seen:
            raise ValueError("ni_sparsify requires a simple graph")
        pair_seen.add(key)
    remaining = set(range(g.m))
    out: list[set[int]] = []
    for _ in range(d):
        adj: dict[int, list[tuple[int, int]]] = {}
        for eid in sorted(remaining):
            u, v = g.edges[eid]
            adj.setdefault(u, []).append((v, eid))
            adj.setdefault(v, []).append((u, eid))
        seen = [False] * g.n
        forest = set()
        for root in range(g.n):
            if seen[root]:
                continue
            seen[root] = True
            queue = [root]
            qi = 0
            while qi < len(queue):
                x = queue[qi]
                qi += 1
                for y, eid in sorted(adj.get(x, ())):
                    if not seen[y]:
                        seen[y] = True
                        forest.add(eid)
                        queue.append(y)
        out.append(forest)
        remaining -= forest
    return out


def ni_sparsify(g: Graph, d: int) -> set[int]:
    """Fault-tolerant sparsification: the union of d edge-disjoint
    scan-first-search forests.

    The result has arboricity at most d (it is a union of d forests) and
    preserves pairwise connectivity under any fewer than d vertex
    deletions.
    """
    chosen: set[int] = set()
    for forest in ni_forests(g, d):
        chosen |= forest
    return chosen
