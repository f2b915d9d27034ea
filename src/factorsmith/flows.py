"""Max flows, and the least feasible flow on a graph's bipartite double cover.

A network is three lists: `heads[x]` holds the arcs that leave node x,
`to[a]` is arc a's head and `cap[a]` its residual capacity.  Arcs come in
pairs, so arc a's reverse is a ^ 1.
"""

from __future__ import annotations


def network(arcs: list[tuple[int, int, int]], size: int) -> tuple[list[list[int]], list[int], list[int]]:
    """The network on nodes 0..size-1 with each (tail, head, capacity) of
    `arcs`, in order, as a pair of arcs, even at capacity 0."""
    heads: list[list[int]] = [[] for _ in range(size)]
    to: list[int] = []
    cap: list[int] = []
    for x, y, c in arcs:
        heads[x].append(len(to))
        heads[y].append(len(to) + 1)
        to += (y, x)
        cap += (c, 0)
    return heads, to, cap


def least_flow(n: int, edges: list[tuple[int, int]], lo: int, hi: int) -> list[int] | None:
    """y_uw + y_wu for each edge uw of `edges` in a least feasible flow y on
    the bipartite double cover B(G) of the graph on n vertices with those
    edges, or None if no feasible flow exists.  B(G) has a left copy L_v and
    a right copy R_v of each vertex, arcs L_u -> R_w and L_w -> R_u of
    capacity 2 for each edge uw, and arcs s -> L_v and R_v -> t that each
    carry between lo and hi, the one window of every vertex.

    Lower bounds go the standard way (Ahuja, Magnanti, Orlin, Network Flows,
    1993, ch. 6): a bounded arc keeps capacity hi - lo, its head draws lo
    from a super-source S' and its tail sends lo to a super-sink T', and an
    arc t -> s closes the circulation.  One max flow from S' to T' runs
    twice, first with t -> s closed, sending M1, then with it open at
    4 * len(edges) for the rest; no flow is feasible iff the two fall short
    of 2n * lo.  The flow left on t -> s, the value of y, is least.  In any
    feasible flow the paths from S' to T' that avoid t -> s form a flow of
    the first network, so t -> s carries at least 2n * lo - M1.  The second
    max flow sends just that, on augmenting paths that each cross t -> s at
    most once, so it leaves no more there."""
    # nodes: 0 = s, 1 = t, 2 = S', 3 = T', 4 + v = L_v, 4 + n + v = R_v
    arcs = [a for u, w in edges for a in ((4 + u, 4 + n + w, 2), (4 + w, 4 + n + u, 2))]
    for v in range(n):
        arcs += ((2, 4 + v, lo), (4 + n + v, 3, lo), (0, 4 + v, hi - lo), (4 + n + v, 1, hi - lo))
    arcs += ((2, 1, n * lo), (0, 3, n * lo), (1, 0, 0))
    heads, to, cap = network(arcs, 4 + 2 * n)
    demand = 2 * n * lo
    first = max_flow(heads, to, cap, 2, 3, demand)
    cap[len(to) - 2] = 4 * len(edges)  # open the arc t -> s
    if first + max_flow(heads, to, cap, 2, 3, demand) < demand:
        return None
    return [cap[a + 1] + cap[a + 3] for a in range(0, 4 * len(edges), 4)]


def max_flow(
    heads: list[list[int]], to: list[int], cap: list[int], source: int, sink: int, limit: int
) -> int:
    """Dinic's max flow from `source` to `sink`, stopping at `limit`; `cap`
    is left as the residual capacities.  Each phase's search stops at the
    sink's level, and blocking flows are found with an explicit stack of
    arcs, not by recursion."""
    size = len(heads)
    flow = 0
    while flow < limit:
        level = [-1] * size
        level[source] = 0
        queue = [source]
        for x in queue:
            below = level[x] + 1
            for a in heads[x]:
                y = to[a]
                if cap[a] and level[y] < 0:
                    level[y] = below
                    queue.append(y)
            if level[sink] >= 0:
                break
        else:
            break
        nxt = [0] * size
        path: list[int] = []
        x = source
        while True:
            if x == sink:
                push = limit - flow
                for a in path:
                    if cap[a] < push:
                        push = cap[a]
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                flow += push
                if flow == limit:
                    return flow
                cut = next(j for j, a in enumerate(path) if not cap[a])
                del path[cut:]
                x = to[path[-1]] if path else source
                continue
            out = heads[x]
            i = nxt[x]
            below = level[x] + 1
            while i < len(out):
                a = out[i]
                if cap[a] and level[to[a]] == below:
                    break
                i += 1
            else:  # x leads nowhere in this phase
                if x == source:
                    break
                level[x] = -1
                a = path.pop()
                x = to[a ^ 1]
                nxt[x] += 1
                continue
            nxt[x] = i
            path.append(a)
            x = to[a]
    return flow
