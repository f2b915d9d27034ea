"""Half-integral [1, k+1/2] edge weightings.

An assignment gives each edge of G the weight 0, 1/2 or 1 so that every
vertex's weighted degree lies in [1, k+1/2].  Weights are stored in integer
half-units 0/1/2, so the window is [2, 2k+1]; no floating point anywhere.
`find_fractional_factor` searches for one and re-checks its answer with
`verify_fractional`.
"""

from __future__ import annotations

from factorsmith.graphs import Graph, edge


class HalfIntegralAssignment:
    """Edge weighting with values in {0, 1/2, 1}, stored as 0/1/2 half-units."""

    __slots__ = ("graph", "units")

    def __init__(self, graph: Graph, units: dict[tuple[int, int], int]):
        edges = set(graph.edges)
        norm: dict[tuple[int, int], int] = {}
        for (u, v), h in units.items():
            e = edge(u, v)
            if e not in edges:
                raise ValueError(f"assignment references non-edge {e}")
            if h not in (0, 1, 2):
                raise ValueError(f"half-unit value must be 0, 1 or 2, got {h}")
            norm[e] = h
        missing = edges - norm.keys()
        if missing:
            raise ValueError(f"assignment missing edges, e.g. {sorted(missing)[0]}")
        self.graph = graph
        self.units = norm

    def half_degree_units(self, v: int) -> int:
        """2 * deg^h(v): the h-degree in half-units."""
        return sum(h for (a, b), h in self.units.items() if v in (a, b))

    def support_edges(self) -> list[tuple[int, int]]:
        return sorted(e for e, h in self.units.items() if h > 0)


def find_fractional_factor(g: Graph, k: int) -> HalfIntegralAssignment | None:
    """Half-integral [1, k+1/2] edge weighting, or None if none exists.

    Exact depth-first search over the sorted edge list, trying half-units
    2, 1, 0 on each edge in turn.  A value is pruned when it lifts an end past
    2k+1 half-units, or when an end could no longer reach 2 half-units with
    all its later edges at 2.  At a vertex's last edge that capacity is zero,
    so the same test rejects a vertex left below 2.  The search keeps its
    position in arrays rather than on the call stack, so long paths and cycles
    need no deeper recursion.  Worst case exponential in ||G||."""
    if k < 1:
        raise ValueError(f"parameter k must be >= 1, got {k}")
    top = 2 * k + 1
    edges = g.edges
    m = len(edges)
    # half-units each vertex can still gain from the edges after the current one
    spare = [2 * g.degree(v) for v in range(g.n)]
    if any(s < 2 for s in spare):
        return None
    units = [0] * g.n
    h = [0] * m
    i = 0
    entering = True
    while 0 <= i < m:
        u, v = edges[i]
        if entering:
            spare[u] -= 2
            spare[v] -= 2
            c = min(2, top - units[u], top - units[v])
        else:  # the edges after i have no completion: take back edge i's value
            units[u] -= h[i]
            units[v] -= h[i]
            c = h[i] - 1
        while c >= 0 and (units[u] + c + spare[u] < 2 or units[v] + c + spare[v] < 2):
            c -= 1
        if c >= 0:
            h[i] = c
            units[u] += c
            units[v] += c
            i += 1
            entering = True
        else:
            spare[u] += 2
            spare[v] += 2
            i -= 1
            entering = False
    if i < 0:
        return None
    assignment = HalfIntegralAssignment(g, dict(zip(edges, h)))
    if not verify_fractional(g, k, assignment):
        raise AssertionError("constructed assignment failed its own verification")
    return assignment


def verify_fractional(g: Graph, k: int, h: HalfIntegralAssignment) -> bool:
    """Exact check: 1 <= deg^h(v) <= k + 1/2 for every vertex."""
    if k < 1:
        raise ValueError(f"parameter k must be >= 1, got {k}")
    if h.graph is not g and h.graph != g:
        raise ValueError("assignment was built for a different graph")
    units = [0] * g.n
    for (u, v), val in h.units.items():
        units[u] += val
        units[v] += val
    return all(2 <= s <= 2 * k + 1 for s in units)
