"""Edge- and vertex-expander hierarchies.

Both hierarchies are built by the same top-down recursion: find a
separator that is expanding and leaves components of at most half the
vertices, assign it the top level, and recurse on the components.
Exact mode certifies expansion by enumerating all cuts (small n only);
heuristic mode runs the same improvement loop but searches for violating
cuts with a spectral sweep plus randomized local search and cannot
certify the result.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import Graph, UnionFind

DEFAULT_N_EXACT = 18


def n_exact_cap() -> int:
    """Exact-mode size cap; FLBL_NEXACT overrides the default of 18."""
    v = os.environ.get("FLBL_NEXACT")
    return int(v) if v else DEFAULT_N_EXACT


class SizeCapError(ValueError):
    """Exact mode requested on a graph above the enumeration size cap."""


class DisconnectedError(ValueError):
    """Separator construction requires a connected input graph."""


# ---------------------------------------------------------------------------
# edge expansion


def _cut_crossings(g: Graph) -> np.ndarray:
    """crossing[mask] for all cuts S with vertex 0 in S (masks over
    vertices 1..n-1; vertex 0 implicit)."""
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


def _lex_key(verts: list[int]):
    return tuple(verts)


def verify_edge_expanding(
    g: Graph, X: set[int] | frozenset[int], phi: Fraction
) -> tuple[bool, list[int] | None]:
    """Exact check that the edge set X is phi-expanding in g.

    Enumerates every cut (S, V\\S); returns (True, None) or
    (False, witness S) for a violating cut.  Requires n <= cap.
    """
    n = g.n
    if n > n_exact_cap():
        raise SizeCapError(f"verify_edge_expanding needs n <= {n_exact_cap()}, got {n}")
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
        key=lambda mk: (int(crossing[mk]), _lex_key(_mask_vertices(mk, n))),
    )
    return False, _mask_vertices(int(best), n)


def _violating_cut_exact(g: Graph, degx: list[int], phi: Fraction,
                         crossing: np.ndarray) -> list[int] | None:
    """Best violating cut for the separator loop (exact enumeration).

    Returns the chosen side S (|S| <= n/2 preferred) minimizing crossing
    then lexicographically smallest, or None when X is phi-expanding.
    crossing is _cut_crossings(g), computed once per separator.
    """
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
    return min(cands, key=_lex_key)


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
        placed = [False] * n
        deg_in = [0] * n  # edges from v into current prefix
        adj = g.adjacency
        for i, v in enumerate(self.order):
            cur += g.degree(v) - 2 * deg_in[v]
            placed[v] = True
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
            cross = sum(1 for (u, v) in g.edges if (u in side) != (v in side))
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
    if mode == "exact" and g.n > n_exact_cap():
        raise SizeCapError(
            f"exact mode needs n <= {n_exact_cap()} (got {g.n}); use heuristic mode"
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
        sep_mode = lambda nn: "exact" if nn <= n_exact_cap() else "heuristic"
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


# ---------------------------------------------------------------------------
# vertex expansion


def _subset_components_cache(g: Graph):
    """components(W) for every vertex subset W, memoized; bitmask based."""
    n = g.n
    adj_mask = [0] * n
    for (u, v) in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    cache: dict[int, tuple[int, ...]] = {0: ()}

    def components(w: int) -> tuple[int, ...]:
        got = cache.get(w)
        if got is not None:
            return got
        lsb = w & (-w)
        comp = lsb
        frontier = lsb
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & (-f)
                f ^= b
                nxt |= adj_mask[b.bit_length() - 1]
            nxt &= w & ~comp
            comp |= nxt
            frontier = nxt
        rest = components(w & ~comp)
        out = (comp,) + rest
        cache[w] = out
        return out

    return components


def _best_bipartition(sizes: list[int], xs: int) -> tuple[int, int]:
    """Over bipartitions of components (both sides nonempty) maximize
    min(|X in L| + xs, |X in R| + xs).  Returns (best value, L-side sum).

    Uses a subset-sum bitmask; any sum strictly between 0 and the total
    is realized by a nonempty proper subset, and the extremes are handled
    via zero-size components.
    """
    tot = sum(sizes)
    if tot == 0:
        return xs, 0
    reach = 1
    for a in sizes:
        reach |= reach << a
    best, best_sum = xs, 0 if 0 in sizes else None
    for ssum in range(1, tot):
        if (reach >> ssum) & 1:
            mn = xs + min(ssum, tot - ssum)
            if mn > best or best_sum is None:
                best, best_sum = mn, ssum
    if best_sum is None:
        # no middle sums and no zero part: sizes like [tot]; cannot happen
        # with >= 2 components unless some size is zero
        best_sum = 0
    return best, best_sum


def _pick_subset(sizes: list[int], target: int) -> list[int]:
    """Indices of a nonempty proper subset of sizes summing to target."""
    k = len(sizes)
    if target == 0:
        for i, a in enumerate(sizes):
            if a == 0:
                return [i]
        raise AssertionError("no subset sums to 0")
    layers = [1]
    for a in sizes:
        layers.append(layers[-1] | (layers[-1] << a))
    rem = target
    chosen = []
    for i in range(k - 1, -1, -1):
        # can we reach rem without item i?
        if (layers[i] >> rem) & 1:
            continue
        chosen.append(i)
        rem -= sizes[i]
        if rem == 0:
            break
    if rem != 0:
        raise AssertionError("subset reconstruction failed")
    if len(chosen) == k:
        chosen.pop()  # keep the subset proper; only possible with a zero part
    return chosen


def _scan_vertex_cuts(g: Graph, xmask: int, phi: Fraction, comps, first_only: bool):
    """Yield violating vertex cuts (L, S, R), scanning separators S in
    increasing (|S|, mask) order for determinism."""
    n = g.n
    full = (1 << n) - 1
    order = sorted(range(1 << n), key=lambda s: (bin(s).count("1"), s))
    for s in order:
        w = full & ~s
        if w == 0:
            continue
        parts = comps(w)
        if len(parts) < 2:
            continue
        ssize = bin(s).count("1")
        xs = bin(s & xmask).count("1")
        sizes = [bin(p & xmask).count("1") for p in parts]
        best, best_sum = _best_bipartition(sizes, xs)
        if ssize * phi.denominator < best * phi.numerator:
            idxs = _pick_subset(sizes, best_sum) if sum(sizes) else [0]
            lm = 0
            for i in idxs:
                lm |= parts[i]
            rm = w & ~lm
            if bin(lm).count("1") > bin(rm).count("1"):
                lm, rm = rm, lm
            tolist = lambda mk: [v for v in range(n) if (mk >> v) & 1]
            yield tolist(lm), tolist(s), tolist(rm)
            if first_only:
                return


def verify_vertex_expanding(
    g: Graph, X: set[int] | frozenset[int], phi: Fraction
) -> tuple[bool, tuple[list[int], list[int], list[int]] | None]:
    """Exact check that vertex set X is phi-vertex-expanding.

    Enumerates every vertex cut (L, S, R); on failure returns a violating
    cut.  Requires n <= cap.
    """
    n = g.n
    if n > n_exact_cap():
        raise SizeCapError(f"verify_vertex_expanding needs n <= {n_exact_cap()}")
    comps = _subset_components_cache(g)
    xmask = 0
    for v in X:
        xmask |= 1 << v
    for cut in _scan_vertex_cuts(g, xmask, phi, comps, first_only=True):
        return False, cut
    return True, None


def _violating_vertex_cut_exact(g: Graph, xset: set[int], phi: Fraction, comps):
    """First violating vertex cut (L, S, R) in scan order, or None."""
    xmask = 0
    for v in xset:
        xmask |= 1 << v
    for cut in _scan_vertex_cuts(g, xmask, phi, comps, first_only=True):
        return cut
    return None


def vertex_separator(g: Graph, mode: str = "exact") -> set[int]:
    """Vertex set X, 1-vertex-expanding (certified in exact mode), whose
    removal leaves components of at most ceil(n/2) vertices.

    Follows the improvement loop X <- (X \\ L) + S on violating vertex
    cuts, which strictly shrinks X.
    """
    phi = Fraction(1, 1)
    if len(_components(g)) != 1:
        raise DisconnectedError("vertex_separator requires a connected graph")
    if mode == "exact" and g.n > n_exact_cap():
        raise SizeCapError(
            f"exact mode needs n <= {n_exact_cap()} (got {g.n}); use heuristic mode"
        )
    X = set(range(g.n))
    if mode == "exact":
        comps = _subset_components_cache(g)
        while True:
            cut = _violating_vertex_cut_exact(g, X, phi, comps)
            if cut is None:
                return X
            L, S, R = cut
            new_x = (X - set(L)) | set(S)
            if not len(new_x) < len(X):
                raise AssertionError("vertex separator update failed to shrink X")
            X = new_x
    else:
        while True:
            cut = _heuristic_vertex_cut(g, X, phi)
            if cut is None:
                return X
            L, S, R = cut
            new_x = (X - set(L)) | set(S)
            if not len(new_x) < len(X):
                return X
            X = new_x


def _heuristic_vertex_cut(g: Graph, xset: set[int], phi: Fraction):
    """Cheap candidate vertex cuts, each checked exactly."""
    n = g.n
    uf_all = UnionFind(n)
    for (u, v) in g.edges:
        uf_all.union(u, v)

    def try_s(smask: set[int]):
        if not smask or len(smask) >= n:
            return None
        uf = UnionFind(n)
        for (u, v) in g.edges:
            if u not in smask and v not in smask:
                uf.union(u, v)
        comps = {}
        for v in range(n):
            if v not in smask:
                comps.setdefault(uf.find(v), []).append(v)
        parts = list(comps.values())
        if len(parts) < 2:
            return None
        xs = len(smask & xset)
        sizes = [len(set(p) & xset) for p in parts]
        tot = sum(sizes)
        order = sorted(range(len(parts)), key=lambda i: -sizes[i])
        lset, lsum = [], 0
        for i in order:
            if lsum <= tot / 2 and len(lset) < len(parts) - 1:
                lset.append(i)
                lsum += sizes[i]
        mn = min(lsum + xs, tot - lsum + xs)
        if len(smask) * phi.denominator < mn * phi.numerator:
            L = [v for i in lset for v in parts[i]]
            lset_set = set(lset)
            R = [v for i in range(len(parts)) if i not in lset_set for v in parts[i]]
            if len(L) > len(R):
                L, R = R, L
            return (L, sorted(smask), R)
        return None

    for v in range(n):
        got = try_s(set(g.neighbors(v)))
        if got:
            return got
    rng = random.Random(0xF1B2)
    for _ in range(20):
        v = rng.randrange(n)
        layer = {v}
        seen = {v}
        for _ in range(rng.randrange(1, 4)):
            nxt = set()
            for x in layer:
                nxt.update(w for w in g.neighbors(x) if w not in seen)
            if not nxt:
                break
            seen |= nxt
            layer = nxt
        got = try_s(layer)
        if got:
            return got
    return None


@dataclass
class VertexLevelAssignment:
    """Vertex level function plus the laminar component family per level."""

    level: tuple[int, ...]   # vertex id -> level in 1..h
    h: int
    phi: Fraction
    certified: bool
    # (level, component vertices sorted, core vertices sorted)
    components: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]


def build_vertex_hierarchy(g: Graph, mode: str = "exact") -> VertexLevelAssignment:
    if mode == "auto":
        sep_mode = lambda nn: "exact" if nn <= n_exact_cap() else "heuristic"
    else:
        sep_mode = lambda nn: mode
    level = [0] * g.n
    all_exact = True
    nodes: list[tuple[int, list[int], list[int]]] = []  # (depth, comp, core)

    def rec(verts: list[int], depth: int):
        nonlocal all_exact
        sub, vmap, _ = g.induced(verts)
        md = sep_mode(sub.n)
        if md != "exact":
            all_exact = False
        X = vertex_separator(sub, mode=md)
        core = sorted(vmap[i] for i in X)
        nodes.append((depth, sorted(verts), core))
        rest = [i for i in range(sub.n) if i not in X]
        uf = UnionFind(sub.n)
        for (u, v) in sub.edges:
            if u not in X and v not in X:
                uf.union(u, v)
        done = set()
        for i in rest:
            r = uf.find(i)
            if r in done:
                continue
            done.add(r)
            grp = [j for j in rest if uf.find(j) == r]
            rec([vmap[j] for j in grp], depth + 1)

    for comp in _components(g):
        rec(comp, 0)
    maxd = max(d for d, _, _ in nodes)
    h = maxd + 1
    comps_out = []
    for d, compv, core in nodes:
        lv = h - d
        for v in core:
            level[v] = lv
        comps_out.append((lv, tuple(compv), tuple(core)))
    return VertexLevelAssignment(
        level=tuple(level),
        h=h,
        phi=Fraction(1, 1),
        certified=all_exact,
        components=tuple(comps_out),
    )


def verify_vertex_hierarchy(g: Graph, hier: VertexLevelAssignment) -> bool:
    """Structural laminarity/core checks plus exact expansion per component."""
    # cores partition V
    allcore: list[int] = []
    for _, _, core in hier.components:
        allcore.extend(core)
    if sorted(allcore) != list(range(g.n)):
        return False
    # laminar family
    sets = [frozenset(c) for _, c, _ in hier.components]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            a, b = sets[i], sets[j]
            if a & b and not (a <= b or b <= a):
                return False
    # no edge between disjoint components
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            a, b = sets[i], sets[j]
            if a & b:
                continue
            for (u, v) in g.edges:
                if (u in a and v in b) or (u in b and v in a):
                    return False
    # expansion of each core within its component
    for lv, compv, core in hier.components:
        sub, vmap, _ = g.induced(list(compv))
        inv = {v: i for i, v in vmap.items()}
        ok, _ = verify_vertex_expanding(sub, {inv[v] for v in core}, hier.phi)
        if not ok:
            return False
    return True
