"""Undirected multigraph representation, ingestion, degree-3 reduction,
and the exact union-find connectivity oracle."""

from __future__ import annotations

from dataclasses import dataclass, field


class GraphParseError(ValueError):
    """Raised when an edge-list document is malformed."""


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def groups(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


@dataclass(frozen=True)
class Graph:
    """Immutable undirected multigraph.

    Vertices are 0..n-1.  Edges keep their position in the input as a
    stable edge id; parallel edges are distinct edges, self-loops are
    rejected at construction.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False, default=())

    def __post_init__(self):
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {eid} endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"edge {eid} is a self-loop at {u}")
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        object.__setattr__(self, "adjacency", tuple(tuple(a) for a in adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adjacency]


def load_graph(text: str) -> Graph:
    """Parse an edge-list document: header "n m", then m lines "u v".

    Lines starting with '#' are ignored.  Raises GraphParseError naming
    the offending line on malformed input, out-of-range vertices or
    self-loops.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise GraphParseError("line 1: empty document, expected header 'n m'")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphParseError(f"line {lineno}: expected header 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(f"line {lineno}: non-integer header {header!r}") from None
    if n < 0 or m < 0:
        raise GraphParseError(f"line {lineno}: negative counts in header")
    if len(rows) - 1 != m:
        raise GraphParseError(
            f"line {lineno}: header declares {m} edges, found {len(rows) - 1}"
        )
    edges = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer endpoint {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: vertex out of range 0..{n - 1}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at {u}")
        edges.append((u, v))
    return Graph(n, tuple(edges))


@dataclass(frozen=True)
class FaultSet:
    """A set of failed edge ids with |F| <= f."""

    edge_ids: tuple[int, ...]

    @staticmethod
    def of(ids, g: Graph, f: int | None = None) -> "FaultSet":
        ids = tuple(ids)
        seen = set()
        for eid in ids:
            if not (0 <= eid < g.m):
                raise ValueError(f"fault edge id {eid} out of range")
            if eid in seen:
                raise ValueError(f"duplicate fault edge id {eid}")
            seen.add(eid)
        if f is not None and len(ids) > f:
            raise ValueError(f"fault set size {len(ids)} exceeds f={f}")
        return FaultSet(ids)


@dataclass(frozen=True)
class Degree3Reduction:
    """Result of substituting a cycle for every vertex of degree >= 3.

    Vertices of degree <= 2 are kept verbatim (a 1- or 2-cycle would be
    degenerate); connectivity under mapped faults is preserved either way.
    Original edges keep their ids in the reduced graph.
    """

    reduced: Graph
    vertex_map: tuple[int, ...]  # original vertex id -> representative reduced vertex


def reduce_degree3(g: Graph) -> Degree3Reduction:
    """Replace each vertex of degree >= 3 by a cycle of its degree, attaching
    each incident edge to a distinct cycle vertex.  Max degree becomes 3."""
    next_id = 0
    base: list[int] = [0] * g.n   # first reduced id for each original vertex
    for v in range(g.n):
        base[v] = next_id
        d = g.degree(v)
        next_id += d if d >= 3 else 1
    new_edges: list[tuple[int, int]] = []
    # original edges keep ids 0..m-1
    attach: list[list[int]] = [[] for _ in range(g.m)]
    for v in range(g.n):
        d = g.degree(v)
        for k, (_, eid) in enumerate(g.adjacency[v]):
            attach[eid].append(base[v] + k if d >= 3 else base[v])
    for eid in range(g.m):
        a, b = attach[eid]
        new_edges.append((a, b))
    # cycle edges after the originals
    for v in range(g.n):
        d = g.degree(v)
        if d >= 3:
            for k in range(d):
                new_edges.append((base[v] + k, base[v] + (k + 1) % d))
    reduced = Graph(next_id, tuple(new_edges))
    return Degree3Reduction(reduced=reduced, vertex_map=tuple(base))


def oracle_components(g: Graph, faults: FaultSet) -> list[list[int]]:
    """Exact connected components of G - F via union-find (ground truth)."""
    dead = set(faults.edge_ids)
    uf = UnionFind(g.n)
    for eid, (u, v) in enumerate(g.edges):
        if eid not in dead:
            uf.union(u, v)
    return uf.groups()
