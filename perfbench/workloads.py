"""Seeded benchmark inputs: graph text, fault-set queries and build seeds.

Everything here is derived from (workload name, seed) alone, so the same
seed gives the same graph, the same queries and the same scheme-4 build
seed on every machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

PAIRS_PER_QUERY = 8

Edges = list[tuple[int, int]]


def cubic_edges(rng: random.Random, n: int) -> Edges:
    """Uniform simple 3-regular graph by the pairing model with rejection
    (the A3 family of the acceptance suite)."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            key = (min(u, v), max(u, v))
            if u == v or key in edges:
                break
            edges.add(key)
        else:
            return sorted(edges)


def tree_plus_chords(rng: random.Random, n: int, chords: int) -> Edges:
    """Random recursive spanning tree plus `chords` distinct extra edges,
    shuffled so edge ids carry no structure."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    seen = set(edges)
    while len(edges) < n - 1 + chords:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            edges.append(key)
    rng.shuffle(edges)
    return edges


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: int
    n: int
    f: int
    max_faults: int
    make_edges: Callable[[random.Random, int], Edges]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("s1-cubic", scheme=1, n=1536, f=1024, max_faults=64,
                 make_edges=cubic_edges),
        # 4n chords: dense enough that some block records exceed 4r
        # large-gap edges, so queries reach codeshares.decode and case 3.
        Workload("s2-sparse", scheme=2, n=150, f=16, max_faults=16,
                 make_edges=lambda rng, n: tree_plus_chords(rng, n, 4 * n)),
        Workload("s4-rand", scheme=4, n=4096, f=400, max_faults=400,
                 make_edges=lambda rng, n: tree_plus_chords(rng, n, 2 * n)),
    )
}


@dataclass(frozen=True)
class Query:
    faults: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Inputs:
    n: int
    edges: Edges
    text: str
    build_seed: int
    queries: Iterator[Query]


def graph_text(n: int, edges: Edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _queries(rng: random.Random, wl: Workload, m: int) -> Iterator[Query]:
    # |F| follows a Weyl sequence with a seeded offset: uniform over
    # 1..max_faults, and even over any prefix, so a run's latency mix does
    # not depend on how many queries fit into its time budget.
    golden = 0.6180339887498949
    u = rng.random()
    while True:
        u = (u + golden) % 1.0
        k = min(m, 1 + int(u * wl.max_faults))
        faults = tuple(rng.sample(range(m), k))
        pairs = tuple((rng.randrange(wl.n), rng.randrange(wl.n))
                      for _ in range(PAIRS_PER_QUERY))
        yield Query(faults, pairs)


def make_inputs(wl: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{wl.name}:{seed}")
    edges = wl.make_edges(rng, wl.n)
    build_seed = rng.randrange(1 << 62)
    return Inputs(wl.n, edges, graph_text(wl.n, edges), build_seed,
                  _queries(rng, wl, len(edges)))
