"""Degree-constrained factors on multigraphs and half-integral factors.

Two independent (g,f)-factor engines back each other:

* backtracking over edge-copy counts with per-vertex capacity pruning —
  the trustworthy exhaustive route, which `find_fractional_factor` uses;
* reduction to perfect matching.  The bound range [g, f] is first made exact
  by the two-copy construction (duplicate the multigraph, join the copies of
  each vertex v by f(v)-g(v) parallel edges, require exact degree f(v)
  everywhere: a subgraph with degrees in [g, f] extends to an exact-f factor
  of the doubled structure and vice versa), then the exact-degree problem
  becomes perfect matching via per-vertex outer/inner gadgets.

Half-integral [1, k+1/2] assignments come from (2, 2k+1)-factors of the
edge-doubled graph: both copies chosen = weight 1, one copy = 1/2, none = 0.
All weights are stored in integer half-units; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from factorsmith.graphs import Graph, MultiGraph, double, edge
from factorsmith.matching import max_matching


@dataclass(frozen=True)
class DegreeBounds:
    """Per-vertex degree window [lower, upper] with lower < upper pointwise."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper bound vectors differ in length")
        for v, (g_v, f_v) in enumerate(zip(self.lower, self.upper)):
            if g_v < 0:
                raise ValueError(f"negative lower bound at vertex {v}")
            if not g_v < f_v:
                raise ValueError(
                    f"bounds must be strict (lower < upper) at vertex {v}: {g_v} !< {f_v}"
                )

    @classmethod
    def uniform(cls, n: int, lower: int, upper: int) -> "DegreeBounds":
        return cls((lower,) * n, (upper,) * n)


@dataclass(frozen=True)
class SpanningSubgraph:
    """A choice of edge copies of a multigraph; spans all vertices by definition."""

    base: MultiGraph
    chosen: frozenset[tuple[int, int, int]]  # (u, v, copy index)

    def __post_init__(self):
        mult = {(u, v): m for u, v, m in self.base.groups}
        for u, v, ci in self.chosen:
            if (u, v) not in mult or not 0 <= ci < mult[(u, v)]:
                raise ValueError(f"chosen copy ({u},{v},{ci}) not present in base multigraph")

    def degrees(self) -> list[int]:
        out = [0] * self.base.n
        for u, v, _ in self.chosen:
            out[u] += 1
            out[v] += 1
        return out


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


def _bounds_for(m: MultiGraph, b: DegreeBounds) -> None:
    if len(b.lower) != m.n:
        raise ValueError(f"bounds cover {len(b.lower)} vertices, multigraph has {m.n}")


def gf_condition_witness(m: MultiGraph, b: DegreeBounds) -> frozenset[int] | None:
    """Exhaustive search for S with g(T) - deg_{G-S}(T) > f(S), where T is the
    set of vertices outside S whose degree into V-S falls below g.  None means
    the degree-window condition holds for every S."""
    _bounds_for(m, b)
    n = m.n
    # degree of v towards V-S, per candidate S, computed from group list
    groups = m.groups
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            smask = 0
            for v in subset:
                smask |= 1 << v
            deg_out = [0] * n
            for u, v, mult in groups:
                if not smask >> v & 1:
                    deg_out[u] += mult
                if not smask >> u & 1:
                    deg_out[v] += mult
            defect = 0
            for v in range(n):
                if not smask >> v & 1 and deg_out[v] < b.lower[v]:
                    defect += b.lower[v] - deg_out[v]
            f_s = sum(b.upper[v] for v in subset)
            if defect > f_s:
                return frozenset(subset)
    return None


def find_gf_factor_backtracking(m: MultiGraph, b: DegreeBounds) -> SpanningSubgraph | None:
    """Exact search over copy counts per edge group, in sorted (u, v) order,
    pruning on per-vertex capacity.  Deterministic: higher counts tried first."""
    _bounds_for(m, b)
    n = m.n
    groups = m.groups
    total_cap = [0] * n
    for u, v, mult in groups:
        total_cap[u] += mult
        total_cap[v] += mult
    for v in range(n):
        if total_cap[v] < b.lower[v]:
            return None

    k = len(groups)
    # last group index touching each vertex, for early lower-bound checks
    last_idx = [-1] * n
    for i, (u, v, _) in enumerate(groups):
        last_idx[u] = i
        last_idx[v] = i
    cur = [0] * n
    remaining = total_cap[:]
    chosen = [0] * k
    lower, upper = b.lower, b.upper

    def rec(i: int) -> bool:
        if i == k:
            return all(cur[v] >= lower[v] for v in range(n))
        u, v, mult = groups[i]
        remaining[u] -= mult
        remaining[v] -= mult
        hi = min(mult, upper[u] - cur[u], upper[v] - cur[v])
        for c in range(hi, -1, -1):
            cur[u] += c
            cur[v] += c
            ok = cur[u] + remaining[u] >= lower[u] and cur[v] + remaining[v] >= lower[v]
            if ok and last_idx[u] == i and cur[u] < lower[u]:
                ok = False
            if ok and last_idx[v] == i and cur[v] < lower[v]:
                ok = False
            if ok:
                chosen[i] = c
                if rec(i + 1):
                    return True
            cur[u] -= c
            cur[v] -= c
        chosen[i] = 0
        remaining[u] += mult
        remaining[v] += mult
        return False

    if not rec(0):
        return None
    picks = frozenset(
        (u, v, ci) for (u, v, _), count in zip(groups, chosen) for ci in range(count)
    )
    return SpanningSubgraph(m, picks)


def find_gf_factor_via_matching(m: MultiGraph, b: DegreeBounds) -> SpanningSubgraph | None:
    """Gadget route: two-copy exact-degree reduction, then Tutte-style vertex
    gadgets (one outer per edge end, d-f inners joined to all outers), solved
    by the blossom engine.  Perfect matching <=> factor."""
    _bounds_for(m, b)
    n = m.n
    # H~ vertices: (v, side) for side in {0, 1}; edge list with repetition
    tilde_edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
    copy_edge_ids: list[tuple[int, int, int]] = []  # group copies of side 0, aligned with tilde_edges prefix order
    for side in (0, 1):
        for u, v, mult in m.groups:
            for ci in range(mult):
                tilde_edges.append(((u, side), (v, side)))
                if side == 0:
                    copy_edge_ids.append((u, v, ci))
    for v in range(n):
        for _ in range(b.upper[v] - b.lower[v]):
            tilde_edges.append(((v, 0), (v, 1)))

    exact = {(v, side): b.upper[v] for v in range(n) for side in (0, 1)}
    tilde_deg: dict[tuple[int, int], int] = {w: 0 for w in exact}
    for a, c in tilde_edges:
        tilde_deg[a] += 1
        tilde_deg[c] += 1
    if any(exact[w] > tilde_deg[w] for w in exact):
        return None

    # gadget: outers per edge end, inners per vertex, complete bipartite
    gadget_edges: list[tuple[int, int]] = []
    outers: dict[tuple[int, int], list[int]] = {w: [] for w in exact}
    counter = 0
    end_vertices: list[tuple[int, int]] = []  # two gadget ids per tilde edge
    for a, c in tilde_edges:
        oa, oc = counter, counter + 1
        counter += 2
        outers[a].append(oa)
        outers[c].append(oc)
        end_vertices.append((oa, oc))
        gadget_edges.append((oa, oc))
    for w in sorted(exact):
        inner_count = tilde_deg[w] - exact[w]
        for _ in range(inner_count):
            inner = counter
            counter += 1
            for o in outers[w]:
                gadget_edges.append((inner, o))

    gadget = Graph(counter, gadget_edges)
    matching = max_matching(gadget)
    if matching.size * 2 != counter:
        return None
    matched = matching.edges
    picks = set()
    for idx, (oa, oc) in enumerate(end_vertices[: len(copy_edge_ids)]):
        if edge(oa, oc) in matched:
            picks.add(copy_edge_ids[idx])
    sub = SpanningSubgraph(m, frozenset(picks))
    degs = sub.degrees()
    for v in range(n):
        if not b.lower[v] <= degs[v] <= b.upper[v]:
            raise AssertionError(f"gadget engine produced out-of-bounds degree at vertex {v}")
    return sub


def find_fractional_factor(g: Graph, k: int) -> HalfIntegralAssignment | None:
    """Half-integral [1, k+1/2] edge weighting via a (2, 2k+1)-factor of the
    edge-doubled multigraph; copy multiplicities {2,1,0} map to {1, 1/2, 0}."""
    if k < 1:
        raise ValueError(f"parameter k must be >= 1, got {k}")
    doubled = double(g)
    bounds = DegreeBounds.uniform(g.n, 2, 2 * k + 1)
    # the backtracking engine is the construction-grade route at desk scale
    factor = find_gf_factor_backtracking(doubled, bounds)
    if factor is None:
        return None
    counts: dict[tuple[int, int], int] = {e: 0 for e in g.edges}
    for u, v, _ in factor.chosen:
        counts[(u, v)] += 1
    h = HalfIntegralAssignment(g, counts)
    if not verify_fractional(g, k, h):
        raise AssertionError("constructed assignment failed its own verification")
    return h


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
