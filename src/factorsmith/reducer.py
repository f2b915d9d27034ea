"""Terminating rewrite engine that shrinks a red/blue factor to family form.

A colored factor carries a half-integral edge weighting: red = weight 1,
blue = weight 1/2.  Each rewrite deletes at least one edge and preserves the
[1, k+1/2] vertex window, so the loop runs at most ||G|| steps.  At the
fixpoint every component classifies into the target family; a component that
does not is an implementation bug and raises loudly (with an exhaustive
minimal-assignment recheck attached when the graph is small enough), never a
silent skip.

Both theorems run on one ordered rule table (`_RULES`).  A rule fires under
its k = 1 name (R1-R8) or its k >= 2 name (S1-S7); the two catalogs share
even cycle (R1/S1), branch edge (R2/S2), odd cycle through a branch vertex
(R3/S3), odd-cycle cover (R4/S4) and branch-branch chain (R5/S5), and the
rules with one name (S6, R6, R7/R8, S7) run only at their k.

Rule scheduling is deterministic: rules are tried in table order and, within
a rule, the candidate with the smallest sorted vertex tuple fires.  Order is
load-bearing in one place: the odd-cycle branch rule assumes no two branch
vertices are adjacent, which holds because the branch-edge deletion rule
precedes it in the table.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from factorsmith.families import (
    ComponentClass,
    Family,
    classify_component,
)
from factorsmith.factors import HalfIntegralAssignment, find_fractional_factor, verify_fractional
from factorsmith.graphs import Graph, connected_components, degree2_chains, edge

logger = logging.getLogger("factorsmith.reducer")

EXHAUSTIVE_RECHECK_EDGE_LIMIT = 16


class ReducerError(RuntimeError):
    pass


class InvalidColoredFactor(ReducerError):
    """A rewrite produced a state violating the vertex half-degree window."""


class FixpointUnclassified(ReducerError):
    """A fixpoint component fell outside the target family.

    The theorems guarantee this never happens; raising it means the rule
    engine is wrong.  Carries the offending state and, for small graphs, the
    verdict of an exhaustive minimal-assignment search for comparison.
    """

    def __init__(self, message: str, factor: "ColoredFactor", exhaustive_report: str):
        super().__init__(f"{message}; exhaustive recheck: {exhaustive_report}")
        self.factor = factor
        self.exhaustive_report = exhaustive_report


@dataclass
class ColoredFactor:
    """Spanning subgraph with red (weight 1) and blue (weight 1/2) edges."""

    base: Graph
    k: int
    red: set[tuple[int, int]]
    blue: set[tuple[int, int]]

    def copy(self) -> "ColoredFactor":
        return ColoredFactor(self.base, self.k, set(self.red), set(self.blue))

    def edge_count(self) -> int:
        return len(self.red) + len(self.blue)

    def half_units(self) -> list[int]:
        units = [0] * self.base.n
        for u, v in self.red:
            units[u] += 2
            units[v] += 2
        for u, v in self.blue:
            units[u] += 1
            units[v] += 1
        return units

    def validate(self) -> None:
        if self.red & self.blue:
            raise InvalidColoredFactor(f"edges both red and blue: {sorted(self.red & self.blue)}")
        base_edges = set(self.base.edges)
        for e in self.red | self.blue:
            if e not in base_edges:
                raise InvalidColoredFactor(f"factor edge {e} not in base graph")
        for v, units in enumerate(self.half_units()):
            if not 2 <= units <= 2 * self.k + 1:
                raise InvalidColoredFactor(
                    f"vertex {v} has h-degree {units}/2, outside [1, {2 * self.k + 1}/2]"
                )


@dataclass(frozen=True)
class RuleStep:
    rule: str
    location: tuple[int, ...]
    removed: tuple[tuple[int, int], ...]
    recolored: tuple[tuple[tuple[int, int], str], ...]

    def to_line(self) -> str:
        rem = ",".join(f"{u}-{v}" for u, v in self.removed)
        rec = ",".join(f"{u}-{v}:{c}" for (u, v), c in self.recolored)
        loc = ",".join(map(str, self.location))
        return f"{self.rule} loc=({loc}) removed=[{rem}] recolored=[{rec}]"


@dataclass
class RuleTrace:
    steps: list[RuleStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def to_text(self) -> str:
        return "\n".join(s.to_line() for s in self.steps) + ("\n" if self.steps else "")


@dataclass(frozen=True)
class ComponentEntry:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    cls: ComponentClass


@dataclass(frozen=True)
class FactorCertificate:
    family: Family
    components: tuple[ComponentEntry, ...]


def from_assignment(g: Graph, k: int, h: HalfIntegralAssignment) -> ColoredFactor:
    """Split a verified assignment into red (weight 1) / blue (weight 1/2)."""
    if not verify_fractional(g, k, h):
        raise ValueError("assignment does not verify at this parameter")
    red = {e for e, units in h.units.items() if units == 2}
    blue = {e for e, units in h.units.items() if units == 1}
    return ColoredFactor(g, k, red, blue)


# --- structural scans ---------------------------------------------------------


class _State:
    """Per-iteration view of the factor: adjacency and degrees, plus the
    block, cycle and chain scans, each computed at most once per state."""

    def __init__(self, f: ColoredFactor):
        self.f = f
        n = f.base.n
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in f.red | f.blue:
            self.adj[u].append(v)
            self.adj[v].append(u)
        for lst in self.adj:
            lst.sort()
        self.deg = [len(a) for a in self.adj]

    def is_red(self, u: int, v: int) -> bool:
        return edge(u, v) in self.f.red

    def half_units(self, v: int) -> int:
        total = 0
        for w in self.adj[v]:
            total += 2 if self.is_red(v, w) else 1
        return total

    @cached_property
    def blocks(self) -> list[tuple[set[int], list[tuple[int, int]]]]:
        """Biconnected blocks as (vertices, edges), by an iterative DFS."""
        n, adj = self.n, self.adj
        disc = [-1] * n
        low = [0] * n
        edges: list[tuple[int, int]] = []
        out: list[tuple[set[int], list[tuple[int, int]]]] = []
        timer = 0
        for s in range(n):
            if disc[s] != -1 or not adj[s]:
                continue
            disc[s] = low[s] = timer
            timer += 1
            stack = [(s, -1, iter(adj[s]))]
            while stack:
                u, parent, nbrs = stack[-1]
                for v in nbrs:
                    if v == parent:
                        continue
                    if disc[v] == -1:
                        edges.append((u, v))
                        disc[v] = low[v] = timer
                        timer += 1
                        stack.append((v, u, iter(adj[v])))
                        break
                    if disc[v] < disc[u]:
                        edges.append((u, v))
                        if disc[v] < low[u]:
                            low[u] = disc[v]
                else:
                    stack.pop()
                    if parent == -1:
                        continue
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if low[u] >= disc[parent]:
                        comp: list[tuple[int, int]] = []
                        while True:
                            e = edges.pop()
                            comp.append(e)
                            if e == (parent, u):
                                break
                        out.append(({x for ed in comp for x in ed}, comp))
        return out

    @cached_property
    def cycles(self) -> list[list[int]]:
        """Blocks that are single cycles, as ordered vertex lists starting at
        the smallest vertex, moving toward its smaller cycle neighbour."""
        return sorted(
            _order_cycle(verts, comp_edges)
            for verts, comp_edges in self.blocks
            if len(comp_edges) == len(verts) >= 3
        )

    def find_even_cycle(self) -> list[int] | None:
        """The smallest of one even cycle per block, or None.  Blocks that are
        single even cycles qualify directly; a block with extra edges always
        contains an even cycle (an ear over any odd cycle closes one)."""
        found = []
        for verts, comp_edges in self.blocks:
            if len(comp_edges) > len(verts):
                found.append(_even_cycle_in_block(verts, comp_edges))
            elif len(comp_edges) == len(verts) >= 3 and len(verts) % 2 == 0:
                found.append(_order_cycle(verts, comp_edges))
        return min(found, default=None)

    @cached_property
    def chains(self) -> list[tuple[int, list[int], int]]:
        """Degree-2 chains ordered by their sorted vertex tuples."""
        return sorted(degree2_chains(self.adj), key=lambda ch: sorted((ch[0], ch[2], *ch[1])))


def _order_cycle(verts: set[int], comp_edges: list[tuple[int, int]]) -> list[int]:
    nbr: dict[int, list[int]] = {v: [] for v in verts}
    for u, v in comp_edges:
        nbr[u].append(v)
        nbr[v].append(u)
    start = min(verts)
    cur = min(nbr[start])
    order = [start, cur]
    prev = start
    while len(order) < len(verts):
        nxt = next(w for w in nbr[cur] if w != prev)
        order.append(nxt)
        prev, cur = cur, nxt
    return order


def _even_cycle_in_block(verts: set[int], comp_edges: list[tuple[int, int]]) -> list[int]:
    """Even cycle inside a 2-connected block with more edges than vertices."""
    nbr: dict[int, list[int]] = {v: [] for v in verts}
    eset = set()
    for u, v in comp_edges:
        nbr[u].append(v)
        nbr[v].append(u)
        eset.add(edge(u, v))
    for v in nbr:
        nbr[v].sort()
    # fundamental cycles from a DFS tree; return the first even one
    root = min(verts)
    parent = {root: None}
    depth = {root: 0}
    order = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        for w in nbr[v]:
            if w not in parent:
                parent[w] = v
                depth[w] = depth[v] + 1
                order.append(w)
                stack.append(w)
    tree_edges = {edge(v, p) for v, p in parent.items() if p is not None}
    fallback: list[int] | None = None
    for u, v in sorted(eset - tree_edges):
        cyc = _tree_cycle(u, v, parent, depth)
        if len(cyc) % 2 == 0:
            return cyc
        if fallback is None:
            fallback = cyc
    # all fundamental cycles odd: attach an ear over one of them
    assert fallback is not None
    cyc = fallback
    on_cycle = set(cyc)
    cyc_edges = {edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))}
    for a in sorted(on_cycle):
        path = _ear_from(a, on_cycle, cyc_edges, nbr)
        if path is None:
            continue
        b = path[-1]
        ia, ib = cyc.index(a), cyc.index(b)
        if ia > ib:
            ia, ib = ib, ia
            path = list(reversed(path))
        # path now runs cyc[ia] .. cyc[ib]; splice it with each arc of the
        # cycle.  The two candidate cycles have lengths of opposite parity,
        # so exactly one is even.
        arc1 = cyc[ia : ib + 1]  # cyc[ia] -> cyc[ib] forward
        arc2 = cyc[ib:] + cyc[: ia + 1]  # cyc[ib] -> around -> cyc[ia]
        ear_interior = path[1:-1]
        cand1 = arc1 + list(reversed(ear_interior))  # ..ib, ear back to ia
        cand2 = arc2 + ear_interior  # ..ia, ear forward to ib
        for cand in (cand1, cand2):
            if len(cand) % 2 == 0:
                return cand
    raise AssertionError("block with extra edges must contain an even cycle")


def _tree_cycle(u: int, v: int, parent: dict, depth: dict) -> list[int]:
    pu, pv = [u], [v]
    a, b = u, v
    while depth[a] > depth[b]:
        a = parent[a]
        pu.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        pv.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        pu.append(a)
        pv.append(b)
    return pu[:-1] + list(reversed(pv))


def _ear_from(a: int, on_cycle: set[int], cyc_edges: set, nbr: dict) -> list[int] | None:
    """Shortest path from a back to the cycle avoiding cycle edges and not
    passing through cycle vertices; None if this start vertex has no ear."""
    from collections import deque

    prev = {a: None}
    q = deque([a])
    while q:
        v = q.popleft()
        for w in nbr[v]:
            if v in on_cycle and w in on_cycle and edge(v, w) in cyc_edges:
                continue
            if w in prev:
                continue
            prev[w] = v
            if w in on_cycle:
                if w != a:
                    path = [w]
                    while path[-1] is not None:
                        path.append(prev[path[-1]])
                    path.pop()
                    return list(reversed(path))
                continue
            q.append(w)
    return None


# --- rewrites -----------------------------------------------------------------


@dataclass(frozen=True)
class _Rewrite:
    rule: str
    location: tuple[int, ...]
    remove: frozenset[tuple[int, int]]
    make_red: frozenset[tuple[int, int]]
    make_blue: frozenset[tuple[int, int]]


def _apply(f: ColoredFactor, rw: _Rewrite) -> RuleStep:
    recolored = []
    for e in sorted(rw.remove):
        f.red.discard(e)
        f.blue.discard(e)
    for e in sorted(rw.make_red):
        if e not in f.red:
            recolored.append((e, "red"))
        f.blue.discard(e)
        f.red.add(e)
    for e in sorted(rw.make_blue):
        if e not in f.blue:
            recolored.append((e, "blue"))
        f.red.discard(e)
        f.blue.add(e)
    return RuleStep(rw.rule, rw.location, tuple(sorted(rw.remove)), tuple(recolored))


def _path_cover_rewrite(rule: str, order: list[int], edges: set, lead: int) -> _Rewrite:
    """Cover an ordered vertex run with a leading path on `lead` vertices and
    then P2s, and drop every other edge of `edges`.  A leading P5 is weighted
    1,1/2,1/2,1; every other kept edge is red."""
    head = [edge(order[i], order[i + 1]) for i in range(lead - 1)]
    blue = set(head[1:3]) if lead == 5 else set()
    red = set(head) - blue
    red |= {edge(order[i], order[i + 1]) for i in range(lead, len(order), 2)}
    drop = edges - red - blue
    return _Rewrite(rule, tuple(order), frozenset(drop), frozenset(red), frozenset(blue))


def _cycle_edges(cyc: list[int]) -> set[tuple[int, int]]:
    return {edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))}


def _cut_chain_end(rule: str, path: list[int], first_blue: int) -> _Rewrite:
    """Drop the last edge of `path`, make the edge before it red and the edges
    from index `first_blue` up to that one blue."""
    make_blue = {edge(path[i], path[i + 1]) for i in range(first_blue, len(path) - 3)}
    return _Rewrite(
        rule,
        tuple(path),
        frozenset({edge(path[-2], path[-1])}),
        frozenset({edge(path[-3], path[-2])}),
        frozenset(make_blue),
    )


def _leaf_chain_rewrite(rule: str, st: _State, a: int, interior: list[int], b: int) -> _Rewrite:
    """Chain from leaf z to branch vertex x: with one interior vertex, drop its
    edge to x; with more, drop the last edge and recolour the run z..x as
    red (the leaf edge, already red), blue, ..., blue, red."""
    z, x = (a, b) if st.deg[a] == 1 else (b, a)
    path = [z] + (interior if a == z else list(reversed(interior))) + [x]
    if len(interior) == 1:
        return _Rewrite(rule, tuple(path), frozenset({edge(path[1], x)}), frozenset(), frozenset())
    return _cut_chain_end(rule, path, 1)


# --- rule table ---------------------------------------------------------------
#
# Each rule takes the state and the name it fires under, and returns the
# rewrite of its first candidate, or None.


def _even_cycle(st: _State, rule: str) -> _Rewrite | None:
    """Even cycle -> red perfect matching (a P2 cover), drop the rest."""
    cyc = st.find_even_cycle()
    return None if cyc is None else _path_cover_rewrite(rule, cyc, _cycle_edges(cyc), 2)


def _branch_edge(st: _State, rule: str) -> _Rewrite | None:
    """Adjacent branch vertices -> delete the joining edge."""
    for u, v in sorted(st.f.red | st.f.blue):
        if st.deg[u] >= 3 and st.deg[v] >= 3:
            return _Rewrite(rule, (u, v), frozenset({edge(u, v)}), frozenset(), frozenset())
    return None


def _odd_cycle_branch(st: _State, rule: str) -> _Rewrite | None:
    """Odd cycle through a branch vertex v -> v keeps its edge to its smaller
    cycle neighbour, the path C - v is matched in red from that neighbour,
    and the other cycle edges are dropped."""
    for cyc in st.cycles:
        branch = [v for v in cyc if st.deg[v] >= 3]
        if branch:
            v = min(branch)
            i = cyc.index(v)
            path = cyc[i + 1 :] + cyc[:i]
            if path[-1] < path[0]:
                path.reverse()
            edges = _cycle_edges(cyc) - {edge(v, path[0])}
            return _path_cover_rewrite(rule, [v] + path, edges, 1)
    return None


def _odd_cycle_cover(st: _State, rule: str) -> _Rewrite | None:
    """Odd cycle component -> spanning {P2, P5} cover at k = 1, where C3 is a
    family member; spanning all-red {P2, P3} cover at k >= 2."""
    lead = 5 if st.f.k == 1 else 3
    for cyc in st.cycles:
        if len(cyc) >= lead and all(st.deg[v] == 2 for v in cyc):
            return _path_cover_rewrite(rule, cyc, _cycle_edges(cyc), lead)
    return None


def _branch_chain(st: _State, rule: str) -> _Rewrite | None:
    """Branch..branch chain with >= 2 interior vertices -> drop its last edge,
    recolour the rest blue, ..., blue, red.  At k = 1 every branch vertex
    has degree exactly 3."""
    for a, interior, b in st.chains:
        if st.deg[a] >= 3 and st.deg[b] >= 3 and len(interior) >= 2 and a != b:
            x, y = (a, b) if a < b else (b, a)
            path = [x] + (interior if a < b else list(reversed(interior))) + [y]
            return _cut_chain_end(rule, path, 0)
    return None


def _branch_gap(st: _State, rule: str) -> _Rewrite | None:
    """Branch-u-branch gap of length two -> cut u from one side."""
    k = st.f.k
    for a, interior, b in st.chains:
        if st.deg[a] >= 3 and st.deg[b] >= 3 and len(interior) == 1 and a != b:
            u1 = interior[0]
            for x, y in sorted(((a, b), (b, a))):
                if st.half_units(x) < 2 * k + 1:
                    return _Rewrite(
                        rule, (x, u1, y), frozenset({edge(u1, y)}), frozenset({edge(x, u1)}), frozenset()
                    )
                if st.is_red(x, u1):
                    return _Rewrite(rule, (x, u1, y), frozenset({edge(u1, y)}), frozenset(), frozenset())
    return None


def _leaf_branch_chain(st: _State, rule: str) -> _Rewrite | None:
    """Leaf..branch chain with 1 or >= 3 interior vertices."""
    for a, interior, b in st.chains:
        if sorted((st.deg[a], st.deg[b])) == [1, 3] and len(interior) not in (0, 2):
            return _leaf_chain_rewrite(rule, st, a, interior, b)
    return None


def _path_component(st: _State, rule: str) -> _Rewrite | None:
    """Path component with >= 4 vertices -> P2 cover when even; {P2, P5}
    cover, fired as R8, when odd with >= 7 vertices (P5 is a member)."""
    for a, interior, b in st.chains:
        if st.deg[a] == st.deg[b] == 1 and len(interior) >= 2:
            order = [a, *interior, b]
            edges = {edge(order[i], order[i + 1]) for i in range(len(order) - 1)}
            if len(order) % 2 == 0:
                return _path_cover_rewrite(rule, order, edges, 2)
            if len(order) >= 7:
                return _path_cover_rewrite("R8", order, edges, 5)
    return None


def _leaf_chains(st: _State, rule: str) -> _Rewrite | None:
    """The first, by sorted vertex tuple, of the path components with >= 4
    vertices (cut the second edge) and the leaf..branch chains (as above,
    any interior length)."""
    for a, interior, b in st.chains:
        ends = sorted((st.deg[a], st.deg[b]))
        if ends[0] != 1 or not interior:
            continue
        if ends[1] == 1 and len(interior) >= 2:
            order = (a, *interior, b)
            return _Rewrite(
                rule,
                order,
                frozenset({edge(order[1], order[2])}),
                frozenset({edge(order[2], order[3])}),
                frozenset(),
            )
        if ends[1] >= 3:
            return _leaf_chain_rewrite(rule, st, a, interior, b)
    return None


# Firing order, with the name a rule fires under at k = 1 and at k >= 2; a
# rule with one name runs only at that k.
_RULES = (
    ("R1", "S1", _even_cycle),
    ("R2", "S2", _branch_edge),
    ("R3", "S3", _odd_cycle_branch),
    ("R4", "S4", _odd_cycle_cover),
    ("R5", "S5", _branch_chain),
    (None, "S6", _branch_gap),
    ("R6", None, _leaf_branch_chain),
    ("R7", None, _path_component),
    (None, "S7", _leaf_chains),
)


def _find_rewrite(st: _State) -> _Rewrite | None:
    for name_k1, name_k2, scan in _RULES:
        rule = name_k1 if st.f.k == 1 else name_k2
        if rule is not None:
            rw = scan(st, rule)
            if rw is not None:
                return rw
    return None


# --- driver ---------------------------------------------------------------------


def minimize(factor: ColoredFactor) -> tuple[ColoredFactor, RuleTrace]:
    """Rewrite to a fixpoint.  Each step removes at least one edge, so at most
    ||G|| steps run; every intermediate state is validated and a violation
    aborts loudly (it would mean a rule fired outside its guard)."""
    f = factor.copy()
    f.validate()
    trace = RuleTrace()
    budget = f.base.num_edges
    while True:
        rw = _find_rewrite(_State(f))
        if rw is None:
            break
        before = f.edge_count()
        step = _apply(f, rw)
        if f.edge_count() >= before:
            raise ReducerError(f"rule {rw.rule} did not remove an edge at {rw.location}")
        f.validate()
        trace.steps.append(step)
        logger.debug("%s", step.to_line())
        if len(trace) > budget:
            raise ReducerError("rewrite count exceeded the edge budget; non-termination bug")
    return f, trace


def extract_component_factor(g: Graph, k: int) -> FactorCertificate | None:
    """None iff no half-integral [1, k+1/2] assignment exists; otherwise a
    certificate whose components all lie in the target family."""
    cert, _, _ = extract_component_factor_detailed(g, k)
    return cert


def extract_component_factor_detailed(
    g: Graph, k: int
) -> tuple[FactorCertificate | None, HalfIntegralAssignment | None, RuleTrace | None]:
    h = find_fractional_factor(g, k)
    if h is None:
        return None, None, None
    f0 = from_assignment(g, k, h)
    f, trace = minimize(f0)
    family = Family.for_k(k)
    entries = _component_entries(g.n, f.red | f.blue, family)
    bad = [e for e in entries if e.cls.kind == "other"]
    if bad:
        report = _exhaustive_recheck(g, k, family)
        raise FixpointUnclassified(
            f"fixpoint component {bad[0].vertices} is outside family {family.kind}(k={k})",
            f,
            report,
        )
    return FactorCertificate(family, tuple(entries)), h, trace


def _classify(vertices: list[int], edges, family: Family) -> ComponentClass:
    """Class of the subgraph on the sorted `vertices` with the given edges,
    relabelled to 0..len-1."""
    index = {v: i for i, v in enumerate(vertices)}
    return classify_component(Graph(len(vertices), [(index[u], index[v]) for u, v in edges]), family)


def _component_entries(n: int, edges, family: Family) -> list[ComponentEntry]:
    """The components of the spanning subgraph with these edges, classified."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    comps = connected_components(n, adj)
    comp_of = [0] * n
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    comp_edges: list[list[tuple[int, int]]] = [[] for _ in comps]
    for e in sorted(edges):
        comp_edges[comp_of[e[0]]].append(e)
    return [
        ComponentEntry(tuple(comp), tuple(es), _classify(comp, es, family))
        for comp, es in zip(comps, comp_edges)
    ]


def _exhaustive_recheck(g: Graph, k: int, family: Family) -> str:
    """Desk-scale fallback: scan all half-integral assignments for one of
    minimal support whose components classify; reports the outcome so the
    failure carries evidence of what a correct engine would have produced."""
    if g.num_edges > EXHAUSTIVE_RECHECK_EDGE_LIMIT:
        return f"skipped (||G||={g.num_edges} > {EXHAUSTIVE_RECHECK_EDGE_LIMIT})"
    edges = g.edges
    best: tuple[int, tuple[int, ...]] | None = None
    for vals in product((0, 1, 2), repeat=len(edges)):
        units = [0] * g.n
        for (u, v), hv in zip(edges, vals):
            units[u] += hv
            units[v] += hv
        if not all(2 <= s <= 2 * k + 1 for s in units):
            continue
        support = sum(1 for hv in vals if hv)
        if best is None or support < best[0]:
            best = (support, vals)
    if best is None:
        return "no valid assignment exists at all (extraction should have returned None)"
    keep = [e for e, hv in zip(edges, best[1]) if hv]
    if all(e.cls.kind != "other" for e in _component_entries(g.n, keep, family)):
        return "a minimal-support assignment classifies cleanly (rule engine incomplete)"
    return "even a minimal-support assignment has an unclassifiable component"


def verify_certificate(g: Graph, cert: FactorCertificate) -> bool:
    """Partition of V, edges present in g, and every class tag re-validates."""
    seen: set[int] = set()
    for entry in cert.components:
        for v in entry.vertices:
            if v in seen or not 0 <= v < g.n:
                return False
            seen.add(v)
    if len(seen) != g.n:
        return False
    base_edges = set(g.edges)
    for entry in cert.components:
        vset = set(entry.vertices)
        for u, v in entry.edges:
            if edge(u, v) not in base_edges or u not in vset or v not in vset:
                return False
        cls = _classify(sorted(vset), entry.edges, cert.family)
        if cls.kind == "other" or cls != entry.cls:
            return False
    return True
