"""Edge-expander hierarchy.

The hierarchy is built top-down: find an edge separator that is
expanding and leaves components of at most half the vertices, assign it
the top level, and recurse on the components.
Exact mode certifies expansion by enumerating all cuts (small n only);
heuristic mode runs the same improvement loop but searches for violating
cuts with a spectral sweep plus randomized local search and cannot
certify the result.
NumPy and SciPy are imported inside the functions that use them, so
that the randomized schemes, which build no hierarchy, never load them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, UnionFind

# Exact mode enumerates vertex subsets: graphs of at most this many vertices.
N_EXACT_CAP = 18


class SizeCapError(ValueError):
    """Exact mode requested on a graph above the enumeration size cap."""


class DisconnectedError(ValueError):
    """Separator construction requires a connected input graph."""


# ---------------------------------------------------------------------------
# edge expansion


def _cut_crossings(g: Graph) -> np.ndarray:
    """crossing[mask] for all cuts S with vertex 0 in S (masks over
    vertices 1..n-1; vertex 0 implicit)."""
    import numpy as np

    n = g.n
    nmasks = 1 << (n - 1)
    masks = np.arange(nmasks, dtype=np.int64)
    # in_s[v] over all masks; vertex 0 always in S
    in_s = np.empty((n, nmasks), dtype=np.uint8)
    in_s[0] = 1
    for v in range(1, n):
        in_s[v] = (masks >> (v - 1)) & 1
    crossing = np.zeros(nmasks, dtype=np.int64)
    for (u, v) in g.edges:
        crossing += in_s[u] != in_s[v]
    return crossing


def _violating_masks(crossing: np.ndarray, degx: list[int], phi: Fraction) -> np.ndarray:
    """bad[mask]: the cut violates phi-expansion of the X-degrees degx."""
    import numpy as np

    # X-volume of every S, indexed as in _cut_crossings: appending vertex v
    # (bit v - 1, the highest so far) doubles the table, O(2^n) in all
    vol_s = np.array(degx[:1], dtype=np.int64)
    for d in degx[1:]:
        vol_s = np.concatenate((vol_s, vol_s + d))
    total = sum(degx)
    minvol = np.minimum(vol_s, total - vol_s)
    # violation: crossing < phi * minvol, in exact rational arithmetic
    bad = crossing * phi.denominator < minvol * phi.numerator
    bad[-1] = False  # mask with S = V is not a cut
    return bad


def _mask_vertices(mask: int, n: int) -> list[int]:
    out = [0]
    for v in range(1, n):
        if (mask >> (v - 1)) & 1:
            out.append(v)
    return out


def verify_edge_expanding(
    g: Graph, X: set[int] | frozenset[int], phi: Fraction
) -> tuple[bool, list[int] | None]:
    """Exact check that the edge set X is phi-expanding in g.

    Enumerates every cut (S, V\\S); returns (True, None) or
    (False, witness S) for a violating cut.  Requires n <= cap.
    """
    import numpy as np

    n = g.n
    if n > N_EXACT_CAP:
        raise SizeCapError(f"verify_edge_expanding needs n <= {N_EXACT_CAP}, got {n}")
    if n <= 1 or not X:
        return True, None
    degx = [0] * n
    for eid in X:
        u, v = g.edges[eid]
        degx[u] += 1
        degx[v] += 1
    crossing = _cut_crossings(g)
    bad = _violating_masks(crossing, degx, phi)
    if not bad.any():
        return True, None
    idx = np.nonzero(bad)[0]
    best = min(
        idx.tolist(),
        key=lambda mk: (int(crossing[mk]), _mask_vertices(mk, n)),
    )
    return False, _mask_vertices(int(best), n)


def _violating_cut_exact(g: Graph, degx: list[int], phi: Fraction,
                         crossing: np.ndarray) -> list[int] | None:
    """Best violating cut for the separator loop (exact enumeration).

    Returns the chosen side S (|S| <= n/2 preferred) minimizing crossing
    then lexicographically smallest, or None when X is phi-expanding.
    crossing is _cut_crossings(g), computed once per separator.
    """
    import numpy as np

    n = g.n
    if n <= 1:
        return None
    bad = _violating_masks(crossing, degx, phi)
    if not bad.any():
        return None
    mincross = crossing[bad].min()
    cands = []
    for mk in np.nonzero(bad & (crossing == mincross))[0].tolist():
        side = _mask_vertices(mk, n)
        sset = set(side)
        other = [v for v in range(n) if v not in sset]
        # keep the smaller side; ties resolved lexicographically
        if len(side) < len(other):
            cands.append(side)
        elif len(other) < len(side):
            cands.append(other)
        else:
            cands.append(min(side, other))
    return min(cands)


class _HeuristicCutFinder:
    """Violating-cut search for large graphs: fixed spectral sweep order,
    small cuts, and seeded local search.  Every candidate is checked
    exactly; only the search is heuristic."""

    def __init__(self, g: Graph, phi: Fraction):
        self.g = g
        self.phi = phi
        self.rng = random.Random(0xF1B1)
        self.order = self._spectral_order()
        self.pos = {v: i for i, v in enumerate(self.order)}
        # crossing count of each sweep prefix (independent of X)
        n = g.n
        cross = [0] * (n + 1)
        cur = 0
        deg_in = [0] * n  # edges from v into current prefix
        adj = g.adjacency
        for i, v in enumerate(self.order):
            cur += g.degree(v) - 2 * deg_in[v]
            for w, _ in adj[v]:
                deg_in[w] += 1
            cross[i + 1] = cur
        self.prefix_cross = cross

    def _spectral_order(self) -> list[int]:
        g = self.g
        n = g.n
        if n <= 3:
            return list(range(n))
        try:
            import numpy as np
            import scipy.sparse as sp
            import scipy.sparse.linalg as spl

            rows, cols = [], []
            for (u, v) in g.edges:
                rows += [u, v]
                cols += [v, u]
            data = np.ones(len(rows))
            a = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
            deg = np.asarray(a.sum(axis=1)).ravel()
            lap = sp.diags(deg) - a
            k = 2 if n > 2 else 1
            # fixed start vector: without one ARPACK seeds from OS entropy
            # and the order (hence the hierarchy and labels) varies per run
            v0 = np.random.default_rng(0xF1B1).uniform(-1.0, 1.0, n)
            vals, vecs = spl.eigsh(lap, k=k, sigma=-1e-6, which="LM", v0=v0)
            fiedler = vecs[:, np.argsort(vals)[-1]]
            return list(np.argsort(fiedler, kind="stable"))
        except Exception:
            return list(range(n))

    def _check(self, side: set[int], degx: list[int], total: int) -> bool:
        """Exact violation test for one candidate cut; counts the crossing
        edges from the adjacency of the side, O(its degree sum)."""
        if not side or len(side) >= self.g.n:
            return False
        adj = self.g.adjacency
        cross = sum(1 for v in side for w, _ in adj[v] if w not in side)
        vol = sum(degx[v] for v in side)
        mv = min(vol, total - vol)
        return cross * self.phi.denominator < mv * self.phi.numerator

    def find(self, degx: list[int]) -> list[int] | None:
        g = self.g
        n = g.n
        total = sum(degx)
        if total == 0:
            return None
        found: list[set[int]] = []

        # 1. sweep cuts along the fixed spectral order
        volpre = 0
        best_margin = None
        best_k = None
        for k in range(1, n):
            volpre += degx[self.order[k - 1]]
            mv = min(volpre, total - volpre)
            lhs = self.prefix_cross[k] * self.phi.denominator
            rhs = mv * self.phi.numerator
            if lhs < rhs:
                margin = rhs - lhs
                if best_margin is None or margin > best_margin:
                    best_margin, best_k = margin, k
        if best_k is not None:
            found.append(set(self.order[:best_k]))

        # 2. singleton and adjacent-pair cuts
        if not found:
            cross1 = g.degrees()
            for v in range(n):
                mv = min(degx[v], total - degx[v])
                if cross1[v] * self.phi.denominator < mv * self.phi.numerator:
                    found.append({v})
                    break
        if not found:
            for (u, v) in g.edges:
                side = {u, v}
                if self._check(side, degx, total):
                    found.append(side)
                    break

        # 3. seeded local search from sweep prefixes / random sets
        if not found:
            side = self._local_search(degx, total)
            if side:
                found.append(side)

        if not found:
            return None
        side = min(found, key=lambda s: sorted(s))
        other = [v for v in range(n) if v not in side]
        s_list = sorted(side)
        if len(other) < len(s_list) or (len(other) == len(s_list) and other < s_list):
            s_list = sorted(other)
        return s_list

    def _local_search(self, degx, total, restarts: int = 4, passes: int = 6):
        g = self.g
        n = g.n
        num, den = self.phi.numerator, self.phi.denominator
        for r in range(restarts):
            if r == 0:
                k = max(1, n // 2)
                side = set(self.order[:k])
            else:
                k = self.rng.randrange(1, n)
                side = set(self.rng.sample(range(n), k))
            cross = sum(1 for v in side for w, _ in g.adjacency[v] if w not in side)
            vol = sum(degx[v] for v in side)
            for _ in range(passes):
                improved = False
                for v in self.rng.sample(range(n), n):
                    inside = v in side
                    d_out = sum(1 for w, _ in g.adjacency[v] if (w in side) != inside)
                    d_in = g.degree(v) - d_out
                    ncross = cross - d_out + d_in
                    nvol = vol + (-degx[v] if inside else degx[v])
                    sz = len(side) + (-1 if inside else 1)
                    if sz <= 0 or sz >= n:
                        continue
                    cur_m = cross * den - min(vol, total - vol) * num
                    new_m = ncross * den - min(nvol, total - nvol) * num
                    if new_m < cur_m:
                        if inside:
                            side.discard(v)
                        else:
                            side.add(v)
                        cross, vol = ncross, nvol
                        improved = True
                        if new_m < 0:
                            return side
                if not improved:
                    break
            if cross * den < min(vol, total - vol) * num:
                return side
        return None


def edge_separator(g: Graph, mode: str = "exact") -> set[int]:
    """Edge set X that is (certified, in exact mode) 1/2-expanding with every
    component of G \\ X having at most ceil(n/2) vertices.

    The improvement loop starts from X = E and strictly shrinks X on each
    violating cut found, so it terminates in at most |E| iterations.
    """
    phi = Fraction(1, 2)
    if g.n == 0:
        return set()
    if len(_components(g)) != 1:
        raise DisconnectedError("edge_separator requires a connected graph")
    if mode == "exact" and g.n > N_EXACT_CAP:
        raise SizeCapError(
            f"exact mode needs n <= {N_EXACT_CAP} (got {g.n}); use heuristic mode"
        )
    X = set(range(g.m))
    degx = [0] * g.n
    for eid in X:
        u, v = g.edges[eid]
        degx[u] += 1
        degx[v] += 1
    if mode == "exact":
        crossing = _cut_crossings(g) if g.n > 1 else None
        finder = None
    else:
        finder = _HeuristicCutFinder(g, phi)
    while True:
        if mode == "exact":
            side = _violating_cut_exact(g, degx, phi, crossing)
        else:
            side = finder.find(degx)
        if side is None:
            return X
        # X loses the edges inside the side and gains the crossing ones,
        # all found from the side's adjacency
        sset = set(side)
        removed = []
        added = []
        for u in side:
            for v, eid in g.adjacency[u]:
                if v not in sset:
                    if eid not in X:
                        added.append(eid)
                elif u < v and eid in X:
                    removed.append(eid)
        if len(removed) <= len(added):
            # cannot happen for a genuinely violating cut; guards the loop
            raise AssertionError("edge separator update failed to shrink X")
        for eid in removed:
            X.discard(eid)
            u, v = g.edges[eid]
            degx[u] -= 1
            degx[v] -= 1
        for eid in added:
            X.add(eid)
            u, v = g.edges[eid]
            degx[u] += 1
            degx[v] += 1


def _components(g: Graph) -> list[list[int]]:
    uf = UnionFind(g.n)
    for (u, v) in g.edges:
        uf.union(u, v)
    return uf.groups()


@dataclass
class EdgeLevelAssignment:
    """Level function on edges plus certification metadata."""

    level: tuple[int, ...]      # edge id -> level in 1..h
    h: int
    phi: Fraction
    certified: bool


def build_edge_hierarchy(g: Graph, mode: str = "exact") -> EdgeLevelAssignment:
    """Top-down recursive construction: E_h <- separator, recurse on the
    components of G \\ X.  Level indices are aligned at the top so the
    separator of the whole graph sits at level h <= ceil(log2 n).

    mode "auto" picks exact below the enumeration cap, heuristic above;
    the result is certified only if every separator ran exact.
    """
    if mode == "auto":
        sep_mode = lambda nn: "exact" if nn <= N_EXACT_CAP else "heuristic"
    else:
        sep_mode = lambda nn: mode
    level = [0] * g.m
    # recursion yields (edge id, depth) with depth 0 at the root separator
    depths: dict[int, int] = {}
    all_exact = True

    def split(pairs, uf: UnionFind, verts: list[int], eids: list[int]):
        """Groups of uf as (vertices, ascending ids of the edges inside)."""
        inside: dict[int, list[int]] = {}
        for (u, v), eid in zip(pairs, eids):
            r = uf.find(u)
            if r == uf.find(v):
                inside.setdefault(r, []).append(eid)
        return [([verts[i] for i in grp], inside[uf.find(grp[0])])
                for grp in uf.groups() if len(grp) > 1]

    def rec(verts: list[int], eids: list[int], depth: int):
        # the subgraph induced by verts, whose edges are exactly eids
        nonlocal all_exact
        idx = {v: i for i, v in enumerate(verts)}
        edges = g.edges
        sub = Graph(len(verts), tuple((idx[edges[e][0]], idx[edges[e][1]]) for e in eids))
        md = sep_mode(sub.n)
        if md != "exact":
            all_exact = False
        X = edge_separator(sub, mode=md)
        for se in X:
            depths[eids[se]] = depth
        uf = UnionFind(sub.n)
        for se, (u, v) in enumerate(sub.edges):
            if se not in X:
                uf.union(u, v)
        for child in split(sub.edges, uf, verts, eids):
            rec(*child, depth + 1)

    uf = UnionFind(g.n)
    for (u, v) in g.edges:
        uf.union(u, v)
    for comp in split(g.edges, uf, list(range(g.n)), list(range(g.m))):
        rec(*comp, 0)
    if g.m:
        maxd = max(depths.values())
        h = maxd + 1
        for eid, d in depths.items():
            level[eid] = h - d
    else:
        h = 0
    return EdgeLevelAssignment(
        level=tuple(level),
        h=h,
        phi=Fraction(1, 2),
        certified=all_exact,
    )
