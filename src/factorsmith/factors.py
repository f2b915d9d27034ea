"""Half-integral [1, k+1/2] edge weightings.

An assignment gives each edge of G the weight 0, 1/2 or 1 so that every
vertex's weighted degree lies in [1, k+1/2].  Weights are counted in integer
half-units 0/1/2, so the window is [2, 2k+1]; no floating point anywhere.
An assignment is its support: it stores only the edges at 1 or 2 half-units,
and every edge it leaves out carries 0, so building or copying one costs
O(support), not O(||G||).
`find_fractional_factor` searches for one and re-checks its answer with
`verify_fractional`.

The search is a depth-first search over the edges.  Once it has wasted
enough work it stops, and builds the same answer edge by edge with a
completion oracle, one max flow on the bipartite double cover B(G)
(Anstee's view of fractional factors), at most two per edge.
"""

from __future__ import annotations

from factorsmith.graphs import Graph, edge

# Dead ends per vertex-or-edge of G that the search may spend before it
# hands over to the completion oracle.  Most small graphs finish sooner
# than a max flow takes: on 3000 gnp(7, 1/2) graphs and the 2288 free trees
# with n <= 13 (k = 1, 2; best of 5, Python 3.11 on 2 cores), the factor
# search took 2.5x and 1.9x as long with 1 as with 16, and with 64 it took
# 0.93x and 1.07x, no faster overall.
ORACLE_AFTER = 16


class HalfIntegralAssignment:
    """Edge weighting with values in {0, 1/2, 1}, stored as its support.

    `units` maps each edge of weight 1/2 or 1, as `edge(u, v)`, to its
    half-units 1 or 2; every other edge of the graph carries 0.  The
    constructor accepts the int values 0, 1 and 2 on edges of the graph, each
    edge given once in either orientation, and drops the zeros."""

    __slots__ = ("graph", "units")

    def __init__(self, graph: Graph, units: dict[tuple[int, int], int]):
        n, adj = graph.n, graph.adj
        norm: dict[tuple[int, int], int] = {}
        for (u, v), h in units.items():
            e = edge(u, v)
            a, b = e
            if not (0 <= a and b < n and adj[a] >> b & 1):
                raise ValueError(f"assignment references non-edge {e}")
            if u > v and e in units:
                raise ValueError(f"assignment gives edge {e} twice")
            if type(h) is not int or not 0 <= h <= 2:
                raise ValueError(f"half-unit value must be the int 0, 1 or 2, got {h!r}")
            if h:
                norm[e] = h
        self.graph = graph
        self.units = norm

    def support_edges(self) -> list[tuple[int, int]]:
        return sorted(self.units)


def find_fractional_factor(g: Graph, k: int) -> HalfIntegralAssignment | None:
    """Half-integral [1, k+1/2] edge weighting, or None if none exists.

    Depth-first search over the sorted edge list, trying half-units 2, 1, 0
    on each edge in turn.  A value is pruned when it lifts an end past 2k+1
    half-units, or when the edge is an end's last and leaves it below 2;
    before its last edge a vertex can still reach 2.  The search keeps its
    position in arrays rather than on the call stack.  Its first solution is
    the lexicographically greatest feasible vector over the sorted edges.

    After ORACLE_AFTER * (n + m) dead ends the search stops and builds that
    same vector in one pass with `_completable`, an exact max-flow test of
    whether a prefix can still be completed.  It asks once for the empty
    prefix (None if not).  Then each edge in turn takes the largest value in
    its window, the caps and the last-edge bound above, whose prefix is
    still completable.  Since the prefix before it is completable, some value
    in the window is, so the lowest needs no test: at most 1 + 2m max flows
    after the switch."""
    if k < 1:
        raise ValueError(f"parameter k must be >= 1, got {k}")
    top = 2 * k + 1
    edges = g.edges
    m = len(edges)
    last = [-1] * g.n  # index of each vertex's last edge
    for j, (a, b) in enumerate(edges):
        last[a] = last[b] = j
    if -1 in last:
        return None
    units = [0] * g.n
    h = [0] * m
    i = 0
    entering = True
    dead_ends = 0
    budget = ORACLE_AFTER * (g.n + m)
    while 0 <= i < m:
        u, v = edges[i]
        if entering:
            c = min(2, top - units[u], top - units[v])
        else:  # the edges after i have no completion: take back edge i's value
            units[u] -= h[i]
            units[v] -= h[i]
            c = h[i] - 1
        while c >= 0 and (i == last[u] and units[u] + c < 2 or i == last[v] and units[v] + c < 2):
            c -= 1
        if c >= 0:
            h[i] = c
            units[u] += c
            units[v] += c
            i += 1
            entering = True
            continue
        dead_ends += 1
        if dead_ends > budget:
            if not _completable(g.n, edges, h, 0, top):
                return None
            units = [0] * g.n
            for j, (u, v) in enumerate(edges):
                lo = max(0, 2 - units[u] if j == last[u] else 0, 2 - units[v] if j == last[v] else 0)
                h[j] = min(2, top - units[u], top - units[v])
                while h[j] > lo and not _completable(g.n, edges, h, j + 1, top):
                    h[j] -= 1
                units[u] += h[j]
                units[v] += h[j]
            break
        i -= 1
        entering = False
    if i < 0:
        return None
    assignment = HalfIntegralAssignment(g, {e: x for e, x in zip(edges, h) if x})
    if not verify_fractional(g, k, assignment):
        raise AssertionError("constructed assignment failed its own verification")
    return assignment


def _completable(
    n: int, edges: tuple[tuple[int, int], ...], h: list[int], p: int, top: int
) -> bool:
    """Whether edges[p:] can take half-units 0..2 so that, with edges[:p]
    fixed at h[:p], every vertex ends with between 2 and `top` half-units.

    With prefix degree f_v, vertex v needs lo_v = max(0, 2 - f_v) to
    hi_v = top - f_v more half-units.  On the bipartite double cover this is
    a flow with s -> L_v and R_v -> t in [lo_v, hi_v] and L_u -> R_w,
    L_w -> R_u of capacity 2 for each later edge uw.  A half-integral x
    gives such a flow (both arcs carry x_e), and an integral flow y gives
    x_e = (y_uw + y_wu) / 2, within the bounds but possibly 1/2 or 3/2.
    Such a quarter-integral x rounds to a half-integral one.  The edges with
    a fractional x_e split into trails, each vertex of odd trail degree
    ending exactly one, and x_e moves by +1/2, -1/2 alternately along each
    trail, staying in 0..2.  Inside a trail no degree changes.  An open
    trail's end has a fractional degree, strictly between the integers lo_v
    and hi_v, so either rounding stays in bounds.  A closed trail of odd
    length moves its start by 1 in a direction we choose.  That start has a
    fractional edge, so hi_v > 0, and hi_v - lo_v is then either hi_v or
    top - 2 >= 1: one direction stays in bounds.

    No lower-bound gadget is needed.  With lo_v <= hi_v, checked first,
    Hoffman's circulation theorem says that the two-sided flow exists iff,
    for all X, Y within V, with cap(A, B) the capacity of the arcs from L_A
    to R_B, (I) lo(X) <= hi(Y) + cap(X, V - Y) and (II) lo(V - Y) <=
    hi(V - X) + cap(X, V - Y).  B(G) is symmetric, cap(A, B) = cap(B, A),
    so (II) is (I) for the pair V - Y, V - X.  And (I) for all X, Y says,
    by max-flow/min-cut, that the plain network with s -> L_v of capacity
    lo_v, R_v -> t of capacity hi_v and the same L -> R arcs has a flow
    saturating every s -> L_v arc."""
    f = [0] * n
    for j in range(p):
        a, b = edges[j]
        f[a] += h[j]
        f[b] += h[j]
    # nodes: 0 = s, 1 = t, 2 + v = L_v, 2 + n + v = R_v
    heads: list[list[int]] = [[] for _ in range(2 * n + 2)]
    to: list[int] = []
    cap: list[int] = []

    def arc(x: int, y: int, c: int) -> None:
        heads[x].append(len(to))
        to.append(y)
        cap.append(c)
        heads[y].append(len(to))
        to.append(x)
        cap.append(0)

    demand = 0
    for v in range(n):
        lo = max(0, 2 - f[v])
        hi = top - f[v]
        if hi < lo:
            return False
        if lo:
            demand += lo
            arc(0, 2 + v, lo)
        if hi:
            arc(2 + n + v, 1, hi)
    for j in range(p, len(edges)):
        a, b = edges[j]
        arc(2 + a, 2 + n + b, 2)
        arc(2 + b, 2 + n + a, 2)
    return _max_flow(heads, to, cap, demand) == demand


def _max_flow(heads: list[list[int]], to: list[int], cap: list[int], limit: int) -> int:
    """Dinic's max flow from node 0 to node 1, stopping at `limit`.  Arc a's
    reverse is a ^ 1; `cap` is left as the residual capacities.  Blocking
    flows are found with an explicit stack of arcs, not by recursion."""
    size = len(heads)
    flow = 0
    while flow < limit:
        level = [-1] * size
        level[0] = 0
        queue = [0]
        for x in queue:
            for a in heads[x]:
                y = to[a]
                if cap[a] and level[y] < 0:
                    level[y] = level[x] + 1
                    queue.append(y)
        if level[1] < 0:
            break
        nxt = [0] * size
        path: list[int] = []
        x = 0
        while flow < limit:
            if x == 1:
                push = min(limit - flow, min(cap[a] for a in path))
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                flow += push
                if flow == limit:
                    break
                cut = next(j for j, a in enumerate(path) if not cap[a])
                del path[cut:]
                x = to[path[-1]] if path else 0
                continue
            out = heads[x]
            while nxt[x] < len(out):
                a = out[nxt[x]]
                if cap[a] and level[to[a]] == level[x] + 1:
                    break
                nxt[x] += 1
            else:
                if x == 0:
                    break
                level[x] = -1
                a = path.pop()
                x = to[a ^ 1]
                nxt[x] += 1
                continue
            path.append(a)
            x = to[a]
    return flow


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
