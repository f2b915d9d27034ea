"""Independent test oracles.  For half-integral [1, k+1/2] weightings: brute
force over every {0, 1/2, 1} vector, an exact dynamic programme on trees,
and the exact depth-first search the factor engine once was, whose first
answer the reducer's pinned traces use.  For `flows.least_flow`: every
flow on the double cover, by brute force.  For the rewrite engine's cycle
scan: every simple cycle of a graph, by brute force."""

from __future__ import annotations

from itertools import product

from factorsmith.factors import HalfIntegralAssignment, verify_fractional
from factorsmith.graphs import Graph, mask_to_list


def brute_completable(g: Graph, h: list[int], p: int, k: int) -> bool:
    """With edges[:p] fixed at h[:p], enumerate every {0, 1/2, 1} value of
    the remaining edges."""
    fixed = [0] * g.n
    for (u, v), x in zip(g.edges[:p], h[:p]):
        fixed[u] += x
        fixed[v] += x
    rest = g.edges[p:]
    for vals in product((0, 1, 2), repeat=len(rest)):
        units = fixed[:]
        for (u, v), x in zip(rest, vals):
            units[u] += x
            units[v] += x
        if all(2 <= s <= 2 * k + 1 for s in units):
            return True
    return False


def brute_least_units(g: Graph, ks: tuple[int, ...]) -> dict[int, int | None]:
    """For each k in `ks`, the least total half-units of a [1, k+1/2]
    weighting of g, or None if it has none; one pass over every
    {0, 1/2, 1} vector."""
    best: dict[int, int | None] = dict.fromkeys(ks)
    for vals in product((0, 1, 2), repeat=g.num_edges):
        units = [0] * g.n
        for (u, v), x in zip(g.edges, vals):
            units[u] += x
            units[v] += x
        if min(units, default=2) < 2:
            continue
        most, total = max(units, default=0), sum(vals)
        for k in ks:
            if most <= 2 * k + 1 and (best[k] is None or total < best[k]):
                best[k] = total
    return best


def tree_least_units(g: Graph, k: int) -> int | None:
    """The least total half-units of a [1, k+1/2] weighting of the tree g,
    or None if it has none.  Exact: rooted at 0, best[v][x] is the least
    total below v when v's edge to its parent carries x half-units, found by
    a knapsack over v's children on the half-units they give v, capped at
    2k+1."""
    top = 2 * k + 1
    parent = [-1] * g.n
    order = [0]
    for v in order:
        for w in mask_to_list(g.adj[v]):
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    assert len(order) == g.n == g.num_edges + 1, "not a tree"
    inf = float("inf")
    best = [[inf] * 3 for _ in range(g.n)]
    for v in reversed(order):
        at = [0] + [inf] * top  # at[s]: least total below v with s half-units at v
        for c in mask_to_list(g.adj[v]):
            if c == parent[v]:
                continue
            nxt = [inf] * (top + 1)
            for s, cost in enumerate(at):
                for y in range(min(2, top - s) + 1):
                    nxt[s + y] = min(nxt[s + y], cost + best[c][y] + y)
            at = nxt
        for x in range(3):
            best[v][x] = min(at[max(0, 2 - x) : top + 1 - x])
    least = best[0][0]
    return None if least == inf else least


def reference_search(g: Graph, k: int) -> HalfIntegralAssignment | None:
    """The lexicographically greatest half-integral [1, k+1/2] edge weighting
    over the sorted edge list, or None if none exists.

    Exact depth-first search, trying half-units 2, 1, 0 on each edge in turn.
    A value is pruned when it lifts an end past 2k+1 half-units, or when an
    end could no longer reach 2 half-units with all its later edges at 2.  At
    a vertex's last edge that capacity is zero, so the same test rejects a
    vertex left below 2.  The search keeps its position in arrays rather than
    on the call stack, so long paths and cycles need no deeper recursion.
    Worst case exponential in ||G||."""
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
    assignment = HalfIntegralAssignment(g, {e: x for e, x in zip(edges, h) if x})
    if not verify_fractional(g, k, assignment):
        raise AssertionError("constructed assignment failed its own verification")
    return assignment


def least_flows(n: int, edges: list[tuple[int, int]], lo: int, hi: int) -> set[tuple[int, ...]]:
    """The per-edge sums y_uw + y_wu of every least feasible flow y on the
    double cover that `flows.least_flow` describes, or the empty set if no
    flow is feasible: each arc L_u -> R_w takes every value 0..2, and every
    vertex must send and receive between lo and hi."""
    best: set[tuple[int, ...]] = set()
    least = None
    for ys in product(product(range(3), repeat=2), repeat=len(edges)):
        out, into = [0] * n, [0] * n
        for (u, w), (a, b) in zip(edges, ys):
            out[u] += a
            into[w] += a
            out[w] += b
            into[u] += b
        if all(lo <= out[v] <= hi and lo <= into[v] <= hi for v in range(n)):
            total = sum(out)
            if least is None or total < least:
                least, best = total, set()
            if total == least:
                best.add(tuple(a + b for a, b in ys))
    return best


def all_cycles(g: Graph) -> set[tuple[int, ...]]:
    """Every simple cycle of g, each as the vertex tuple from its smallest
    vertex toward that vertex's smaller cycle neighbour.  Brute force: every
    path from s through larger vertices that closes back at s, kept in the
    direction whose second vertex is below its last."""
    found = set()
    for s in range(g.n):
        stack = [[s]]
        while stack:
            path = stack.pop()
            for w in mask_to_list(g.adj[path[-1]]):
                if w == s and len(path) >= 3 and path[1] < path[-1]:
                    found.add(tuple(path))
                elif w > s and w not in path:
                    stack.append(path + [w])
    return found
