"""Half-integral [1, k+1/2] edge weightings.

An assignment gives each edge of G the weight 0, 1/2 or 1 so that every
vertex's weighted degree lies in [1, k+1/2].  Weights are counted in integer
half-units 0/1/2, so the window is [2, 2k+1]; no floating point anywhere.
An assignment is its support: it stores only the edges at 1 or 2 half-units,
and every edge it leaves out carries 0, so building or copying one costs
O(support), not O(||G||).  It is plain data: `verify_fractional` alone
judges one, keys and values included, as it stands after any edit
(`reducer.minimize` edits one in place).  `find_fractional_factor` builds one
in polynomial time and re-checks its answer with `verify_fractional`.

The construction is `flows.least_flow` on the bipartite double cover B(G)
(Anstee, "An algorithmic proof of Tutte's f-factor theorem", J. Algorithms
6, 1985), whose arcs L_u -> R_w and L_w -> R_u carry up to 2 for each edge
uw.  A flow with s -> L_v and R_v -> t each in the one window [2, 2k+1] at
every vertex v is a weighting and back.  A half-integral x gives one with
both arcs of each edge at x_e; an integral flow y gives
x_e = (y_uw + y_wu) / 2 half-units, whose total is half the flow value,
within the window but possibly 1/2 or 3/2.

Such an x rounds to a half-integral one.  In quarter-units q_e = y_uw + y_wu
every degree lies in [4, 4k+2], whose ends are even.  The edges with odd q_e
split into trails, each vertex of odd trail degree ending exactly one, and
q_e moves by -1, +1 alternately along each trail, staying in 0..4 and
becoming even.  Inside a trail no degree changes.  An open trail's end has
an odd degree, strictly inside the window, so either move keeps it there.
A closed trail of odd length moves the even degree of the vertex it starts
at by 2, in a direction we choose: down from 6 or more, else up from 4.

So the total stays at or below the least flow's, a lower bound for every
weighting's, except where a closed trail of odd length whose vertices all
sit at weight 1 moves up.  Bipartite graphs have no closed trail of odd
length, so there the answer has least total weight.  It has on every graph
with n <= 6 at k <= 3 too (checked by brute force), but not always: the
9-vertex `HAfaPUo` at k = 1 gets 10 half-units where 9 suffice.  Going below
that is a parity problem, as for b-matchings.
"""

from __future__ import annotations

from factorsmith.flows import least_flow
from factorsmith.graphs import Graph, edge, leaf_centre


class HalfIntegralAssignment:
    """Edge weighting with values in {0, 1/2, 1}, stored as its support.

    `units` maps each edge of weight 1/2 or 1, as `edge(u, v)`, to its
    half-units 1 or 2; every other edge of the graph carries 0.  Both fields
    are stored as given: `verify_fractional` is what checks them."""

    __slots__ = ("graph", "units")

    def __init__(self, graph: Graph, units: dict[tuple[int, int], int]):
        self.graph = graph
        self.units = units

    def support_edges(self) -> list[tuple[int, int]]:
        return sorted(self.units)


def find_fractional_factor(g: Graph, k: int) -> HalfIntegralAssignment | None:
    """Half-integral [1, k+1/2] edge weighting, or None if none exists.

    The refusal comes first and reads the masks alone, so no edge list or
    flow network is built: an isolated vertex, or a vertex with more than k
    leaf neighbours.  A leaf reaches 2 half-units only through its one edge,
    so each of those edges would carry 2 and lift that vertex above 2k+1.
    The vertex comes from `graphs.leaf_centre` with the bound k, the whole
    part of k+1/2 that `check_iso_condition` passes it at c = k+1/2, so this
    refuses exactly where that check's witness has size 0 or 1: an isolated
    vertex, or such a vertex v as S = {v}.  Otherwise every edge takes the
    least feasible flow on B(G) with the window [2, 2k+1] at every vertex,
    rounded along trails (see the module docstring): two max flows in all.
    A leaf's two arcs carry at most 2 each, so the window saturates them and
    every pendant edge carries 2 with no step of its own."""
    if k < 1:
        raise ValueError(f"parameter k must be >= 1, got {k}")
    adj = g.adj
    if not all(adj) or leaf_centre(adj, k)[1] is not None:
        return None
    edges = g.edges
    q = least_flow(g.n, edges, 2, 2 * k + 1)
    if q is None:
        return None
    deg = [0] * g.n
    for (u, w), x in zip(edges, q):
        deg[u] += x
        deg[w] += x
    _round_trails(edges, q, deg)
    assignment = HalfIntegralAssignment(g, {e: x // 2 for e, x in zip(edges, q) if x})
    if not verify_fractional(g, k, assignment):
        raise AssertionError("constructed assignment failed its own verification")
    return assignment


def _round_trails(ends: list[tuple[int, int]], q: list[int], deg: list[int]) -> None:
    """Make every quarter-unit q[j] of edge ends[j] even, moving each odd one
    by 1 along trails as the module docstring proves safe; `deg` holds the
    quarter-unit degrees and is kept up to date."""
    inc: list[list[int]] = [[] for _ in deg]
    for j, (u, w) in enumerate(ends):
        if q[j] & 1:
            inc[u].append(j)
            inc[w].append(j)
    left = [len(js) for js in inc]

    def walk(v: int, sign: int) -> None:
        deg[v] += sign
        while left[v]:
            j = inc[v].pop()
            if not q[j] & 1:  # already moved, from its other end
                continue
            q[j] += sign
            u, w = ends[j]
            left[u] -= 1
            left[w] -= 1
            v = w if v == u else u
            sign = -sign
        deg[v] -= sign

    for v in range(len(deg)):
        if left[v] & 1:
            walk(v, -1)
    for v in sorted(range(len(deg)), key=lambda v: deg[v] < 6):
        if left[v]:
            walk(v, -1 if deg[v] >= 6 else 1)


def verify_fractional(g: Graph, k: int, h: HalfIntegralAssignment) -> bool:
    """Exact check of h on its own: every key of `h.units` is an edge of g
    as `edge(u, v)`, every value is the int 1 or 2 (no bool, no float), and
    1 <= deg^h(v) <= k + 1/2 for every vertex."""
    if k < 1:
        raise ValueError(f"parameter k must be >= 1, got {k}")
    if h.graph is not g and h.graph != g:
        raise ValueError("assignment was built for a different graph")
    n, adj = g.n, g.adj
    units = [0] * n
    for e, x in h.units.items():
        u, v = e
        # u < n guards the index; the bit test refuses v == u and v >= n
        if not (0 <= u < n and edge(u, v) == e and adj[u] >> v & 1 and type(x) is int and 1 <= x <= 2):
            return False
        units[u] += x
        units[v] += x
    return all(2 <= s <= 2 * k + 1 for s in units)
