"""Test helpers: AHU canonical forms of trees rooted at centroids, degree
sequences, membership in T(2k+1), the half-unit weightings the family
tests check, a counter of max flows, and connected graphs with every degree
in [2, 4]."""

from __future__ import annotations

import random

from factorsmith import flows
from factorsmith.factors import HalfIntegralAssignment
from factorsmith.families import classify_component, cubic_expansion, tree_expansion
from factorsmith.graphs import Graph, connected_components, mask_to_list


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Vertex degrees, largest first."""
    return tuple(sorted((g.degree(v) for v in range(g.n)), reverse=True))


def is_tree_expansion(t: Graph, k: int) -> bool:
    """t is a member of T(2k+1): the classifier gives it the expansion tag
    of k.  P5, a star or a member at another k gets another tag."""
    return classify_component(t, k) == (cubic_expansion() if k == 1 else tree_expansion(k))


def half_degree_units(h: HalfIntegralAssignment, v: int) -> int:
    """2 * deg^h(v): the h-degree of v in half-units."""
    return sum(x for (a, b), x in h.units.items() if v in (a, b))


def pendant_half_assignment(t: Graph) -> HalfIntegralAssignment:
    """Weight 1 on pendant edges, 1/2 elsewhere: the canonical assignment
    carried by every generated family tree."""
    return HalfIntegralAssignment(
        t, {(u, v): 2 if t.degree(u) == 1 or t.degree(v) == 1 else 1 for u, v in t.edges}
    )


def counted_flows(mp) -> list:
    """A list that grows by one entry per `flows.max_flow` call, through a
    wrapper that the MonkeyPatch `mp` sets."""
    calls = []
    real = flows.max_flow

    def counted(*args):
        calls.append(None)
        return real(*args)

    mp.setattr(flows, "max_flow", counted)
    return calls


def random_degrees_2_to_4(n: int, seed: int) -> Graph:
    """A graph on n vertices, in the thousands, with every degree in [2, 4]:
    each vertex u in turn is joined to uniformly drawn vertices v != u of
    degree below 4, not yet its neighbours, until u has degree 2, drawn
    from `random.Random(seed * 100000 + n)`.  Raises ValueError if the draw
    is not connected."""
    rng = random.Random(seed * 100000 + n)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        while len(nbrs[u]) < 2:
            v = rng.randrange(n)
            if v != u and v not in nbrs[u] and len(nbrs[v]) < 4:
                nbrs[u].add(v)
                nbrs[v].add(u)
    g = Graph(n, [(u, v) for u in range(n) for v in nbrs[u] if u < v])
    if len(connected_components(n, g.adj)) != 1:
        raise ValueError(f"seed {seed} gives a disconnected graph on {n} vertices")
    return g


def _rooted_canon(g: Graph, root: int, parent: int) -> tuple:
    children = sorted(
        (_rooted_canon(g, w, root) for w in mask_to_list(g.adj[root]) if w != parent),
        reverse=True,
    )
    return tuple(children)


def _centroids(g: Graph) -> list[int]:
    n = g.n
    if n == 1:
        return [0]
    size = [1] * n
    order: list[int] = []
    parent = [-1] * n
    stack = [0]
    seen = [False] * n
    seen[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for w in mask_to_list(g.adj[v]):
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                stack.append(w)
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    best: list[int] = []
    best_w = n + 1
    for v in range(n):
        w = n - size[v]
        for u in mask_to_list(g.adj[v]):
            if parent[u] == v:
                w = max(w, size[u])
        if w < best_w:
            best_w = w
            best = [v]
        elif w == best_w:
            best.append(v)
    return best


def tree_canon(g: Graph) -> tuple:
    """Canonical form of a free tree; equal forms <=> isomorphic trees."""
    assert g.num_edges == g.n - 1, "tree_canon expects a tree"
    forms = sorted(_rooted_canon(g, c, -1) for c in _centroids(g))
    return tuple(forms)
