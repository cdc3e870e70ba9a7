"""Ground truth for benchmark queries: union-find over G - F.

Written independently of the program under test so that a defect shared
by the program's own oracle cannot hide a wrong answer.
"""

from __future__ import annotations


def component_ids(n: int, edges, faults) -> list[int]:
    """Component representative of every vertex of G - F."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    dead = set(faults)
    for eid, (u, v) in enumerate(edges):
        if eid not in dead:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    return [find(v) for v in range(n)]


def expected_answer(n: int, edges, query) -> tuple[tuple[bool, ...], int]:
    """(connected? for each pair, number of components) of G - F."""
    comp = component_ids(n, edges, query.faults)
    pairs = tuple(comp[s] == comp[t] for s, t in query.pairs)
    return pairs, len(set(comp))
