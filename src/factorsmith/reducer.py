"""Terminating rewrite engine that shrinks a half-integral factor to family form.

The engine edits a `HalfIntegralAssignment` in place: 2 half-units (weight 1)
on an edge is called red and 1 half-unit (weight 1/2) blue, names that appear
only in trace text.  The assignment stores its support only, and so does
every state the engine reaches.  Each rewrite writes new half-units on
support edges only, removes at least one support edge by setting it to 0
(which deletes it from the assignment), and keeps every vertex in the
[1, k+1/2] window, which `verify_fractional` re-checks after each step; so
the loop runs at most ||G|| steps.  At the fixpoint every component of the
support classifies into the target family; a component that does not is an
implementation bug and raises loudly, never a silent skip.

Both theorems run on one ordered rule table (`_RULES`).  A rule fires under
its k = 1 name (R1-R8) or its k >= 2 name (S1-S7); the two catalogs share
even cycle (R1/S1), branch edge (R2/S2), odd cycle through a branch vertex
(R3/S3), odd-cycle cover (R4/S4) and branch-branch chain (R5/S5), and the
rules with one name (S6, R6, R7/R8, S7) run only at their k.

Rule scheduling is deterministic: rules are tried in table order, and within
a rule the first candidate in a fixed order fires.  Chains and branch edges
go by their sorted vertex tuples.  Cycles go by the vertex lists
`_order_cycle` writes, which start at the smallest vertex and move toward
its smaller cycle neighbour: the triangle 0-2-3, listed (0, 2, 3), comes
before the 5-cycle 0-5-1-6-4, listed (0, 4, 6, 1, 5), though the sorted
tuple (0, 1, 4, 5, 6) is smaller.  All cycles come from one breadth-first
spanning forest of the support and its fundamental cycles (Paton, CACM
12(9), 1969), taken in ascending order of their non-tree edges.  If one
shares an edge with an earlier one, the even-cycle rule takes the first even
cycle among the two and their symmetric difference; otherwise the
fundamental cycles are all the cycles there are, and it takes the smallest
even list.  Order is load-bearing in two places.  The odd-cycle rules read
the cycle list, which is complete only in a state where the even-cycle rule
did not fire; they come after it in the table.  And the odd-cycle branch
rule assumes no two branch vertices are adjacent, which holds because the
branch-edge deletion rule precedes it.

`RuleStep`, `ComponentEntry` and `FactorCertificate` are NamedTuples, so each
compares equal to the plain tuple of its fields; `RuleTrace`, which
`minimize` appends to, is the one mutable class.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from factorsmith.families import ComponentClass, classify_component
from factorsmith.factors import HalfIntegralAssignment, find_fractional_factor, verify_fractional
from factorsmith.graphs import Graph, connected_components, degree2_chains, edge


class ReducerError(RuntimeError):
    pass


class InvalidColoredFactor(ReducerError):
    """A rewrite touched an edge outside the support, wrote a value other
    than 0, 1 or 2 half-units, or left a vertex outside the [1, k+1/2]
    window."""


class FixpointUnclassified(ReducerError):
    """A fixpoint component fell outside the target family.

    The theorems guarantee this never happens; raising it means the rule
    engine is wrong.  Carries the fixpoint assignment and k: its graph and k
    are enough to replay the extraction.
    """

    def __init__(self, message: str, factor: HalfIntegralAssignment | None, k: int):
        super().__init__(message)
        self.factor = factor
        self.k = k


class RuleStep(NamedTuple):
    """One rewrite: new half-units for each support edge it touches, 0
    removing the edge.  A rule returns every edge it writes; the trace keeps
    the edges whose value changed."""

    rule: str
    location: tuple[int, ...]
    units: dict[tuple[int, int], int]

    def to_line(self) -> str:
        """Edges set to 0, then to 2 (red), then to 1 (blue), then to any
        other value x as u-v:x, each sorted."""
        rem, red, blue = (sorted(e for e, x in self.units.items() if x == value) for value in (0, 2, 1))
        other = sorted((e, x) for e, x in self.units.items() if x not in (0, 1, 2))
        removed = ",".join(f"{u}-{v}" for u, v in rem)
        recolored = ",".join(
            [f"{u}-{v}:red" for u, v in red]
            + [f"{u}-{v}:blue" for u, v in blue]
            + [f"{u}-{v}:{x}" for (u, v), x in other]
        )
        loc = ",".join(map(str, self.location))
        return f"{self.rule} loc=({loc}) removed=[{removed}] recolored=[{recolored}]"


class RuleTrace:
    """The steps `minimize` applied, in order."""

    __slots__ = ("steps",)

    def __init__(self, steps: list[RuleStep] | None = None):
        self.steps = [] if steps is None else steps

    def __len__(self) -> int:
        return len(self.steps)

    def to_text(self) -> str:
        return "\n".join(s.to_line() for s in self.steps) + ("\n" if self.steps else "")


class ComponentEntry(NamedTuple):
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    cls: ComponentClass


class FactorCertificate(NamedTuple):
    k: int
    components: tuple[ComponentEntry, ...]


def from_assignment(g: Graph, k: int, h: HalfIntegralAssignment) -> HalfIntegralAssignment:
    """A copy of the verified assignment h, for `minimize` to edit."""
    if not verify_fractional(g, k, h):
        raise ValueError("assignment does not verify at this parameter")
    return HalfIntegralAssignment(g, dict(h.units))


# --- structural scans ---------------------------------------------------------


class _State:
    """Per-iteration view of the assignment's support: adjacency and degrees,
    plus the cycle and chain scans, each computed at most once per state.
    `cycles` is every cycle of the support in each state where
    `find_even_cycle` returns None, the only states the odd-cycle rules see."""

    def __init__(self, h: HalfIntegralAssignment, k: int):
        self.k = k
        self.units = h.units
        n = h.graph.n
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in h.units:
            self.adj[u].append(v)
            self.adj[v].append(u)
        for lst in self.adj:
            lst.sort()
        self.deg = [len(a) for a in self.adj]

    @cached_property
    def _cycle_scan(self) -> tuple[list[set[tuple[int, int]]], set[tuple[int, int]] | None]:
        """The fundamental cycles of a breadth-first spanning forest as edge
        sets, up to the first one that shares an edge with an earlier one,
        and then an even cycle from that clash (else None).

        With C the clashing cycle and D the earliest it meets, C and D share
        one tree path, so C ^ D is a cycle of length |C| + |D| - 2|C & D|:
        even when both are odd.  With no clash the fundamental cycles are
        edge-disjoint, so every cycle of the support is one of them."""
        n, adj = self.n, self.adj
        parent = [-1] * n
        depth = [-1] * n
        for s in range(n):
            if depth[s] != -1:
                continue
            depth[s] = 0
            queue = [s]
            for u in queue:
                for v in adj[u]:
                    if depth[v] == -1:
                        depth[v] = depth[u] + 1
                        parent[v] = u
                        queue.append(v)
        owner: dict[tuple[int, int], int] = {}
        found: list[set[tuple[int, int]]] = []
        for u in range(n):
            for v in adj[u]:
                if v < u or parent[v] == u or parent[u] == v:
                    continue
                cyc = {(u, v)}
                a, b = u, v
                while a != b:
                    if depth[a] < depth[b]:
                        a, b = b, a
                    cyc.add(edge(a, parent[a]))
                    a = parent[a]
                met = [owner[e] for e in cyc if e in owner]
                if met:
                    d = found[min(met)]
                    return found, next(c for c in (cyc, d, cyc ^ d) if len(c) % 2 == 0)
                owner.update(dict.fromkeys(cyc, len(found)))
                found.append(cyc)
        return found, None

    @cached_property
    def cycles(self) -> list[list[int]]:
        """The fundamental cycles in `_order_cycle` form, sorted."""
        return sorted(map(_order_cycle, self._cycle_scan[0]))

    def find_even_cycle(self) -> list[int] | None:
        """The even cycle of a clash, else the smallest even cycle, or None."""
        clash = self._cycle_scan[1]
        if clash is not None:
            return _order_cycle(clash)
        return min((cyc for cyc in self.cycles if len(cyc) % 2 == 0), default=None)

    @cached_property
    def chains(self) -> list[tuple[int, list[int], int]]:
        """Degree-2 chains ordered by their sorted vertex tuples."""
        return sorted(degree2_chains(self.adj), key=lambda ch: sorted((ch[0], ch[2], *ch[1])))


def _order_cycle(edges: set[tuple[int, int]]) -> list[int]:
    """The cycle with these edges as a vertex list, from its smallest vertex
    toward that vertex's smaller neighbour."""
    nbr: dict[int, list[int]] = {}
    for u, v in edges:
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    start = min(nbr)
    order = [start]
    prev, cur = start, min(nbr[start])
    while cur != start:
        order.append(cur)
        a, b = nbr[cur]
        prev, cur = cur, b if a == prev else a
    return order


# --- rewrites -----------------------------------------------------------------


def _apply(units: dict[tuple[int, int], int], rw: RuleStep) -> RuleStep:
    """Write the rewrite's half-units, deleting each edge set to 0, and
    return it with only the edges whose value changed."""
    for e in sorted(rw.units):
        if e not in units:
            raise InvalidColoredFactor(f"rule {rw.rule} at {rw.location} touches {e}, outside the support")
    changed = {e: x for e, x in rw.units.items() if x != units[e]}
    for e, x in changed.items():
        if x:
            units[e] = x
        else:
            del units[e]
    return RuleStep(rw.rule, rw.location, changed)


def _path_cover_rewrite(rule: str, order: list[int], edges: set, lead: int) -> RuleStep:
    """Cover an ordered vertex run with a leading path on `lead` vertices and
    then P2s, and drop every other edge of `edges`.  A leading P5 is weighted
    1,1/2,1/2,1; every other kept edge is at 2 half-units."""
    new = dict.fromkeys(edges, 0)
    for i in (*range(lead - 1), *range(lead, len(order), 2)):
        new[edge(order[i], order[i + 1])] = 1 if lead == 5 and i in (1, 2) else 2
    return RuleStep(rule, tuple(order), new)


def _cycle_edges(cyc: list[int]) -> set[tuple[int, int]]:
    return {edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))}


def _cut_chain_end(rule: str, path: list[int], first_half: int) -> RuleStep:
    """Drop the last edge of `path`, put 2 half-units on the edge before it
    and 1 on the edges from index `first_half` up to that one."""
    new = {edge(path[i], path[i + 1]): 1 for i in range(first_half, len(path) - 3)}
    new[edge(path[-3], path[-2])] = 2
    new[edge(path[-2], path[-1])] = 0
    return RuleStep(rule, tuple(path), new)


def _leaf_chain_rewrite(rule: str, st: _State, a: int, interior: list[int], b: int) -> RuleStep:
    """Chain from leaf z to branch vertex x: drop the last edge and write the
    run z..x as 2, 1, ..., 1, 2 half-units.  The leaf edge is already at 2,
    since a leaf reaches 2 half-units through that edge alone."""
    z, x = (a, b) if st.deg[a] == 1 else (b, a)
    path = [z] + (interior if a == z else list(reversed(interior))) + [x]
    return _cut_chain_end(rule, path, 1)


# --- rule table ---------------------------------------------------------------
#
# Each rule takes the state and the name it fires under, and returns the
# rewrite of its first candidate, or None.


def _even_cycle(st: _State, rule: str) -> RuleStep | None:
    """Even cycle -> perfect matching at 2 half-units (a P2 cover), drop the
    rest."""
    cyc = st.find_even_cycle()
    return None if cyc is None else _path_cover_rewrite(rule, cyc, _cycle_edges(cyc), 2)


def _branch_edge(st: _State, rule: str) -> RuleStep | None:
    """Adjacent branch vertices -> delete the joining edge."""
    for u in range(st.n):
        if st.deg[u] >= 3:
            for v in st.adj[u]:
                if v > u and st.deg[v] >= 3:
                    return RuleStep(rule, (u, v), {edge(u, v): 0})
    return None


def _odd_cycle_branch(st: _State, rule: str) -> RuleStep | None:
    """Odd cycle through a branch vertex v -> v keeps its edge to its smaller
    cycle neighbour, the path C - v is matched at 2 half-units from that
    neighbour, and the other cycle edges are dropped."""
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


def _odd_cycle_cover(st: _State, rule: str) -> RuleStep | None:
    """Odd cycle component -> spanning {P2, P5} cover at k = 1, where C3 is a
    family member; spanning {P2, P3} cover at 2 half-units per edge at k >= 2."""
    lead = 5 if st.k == 1 else 3
    for cyc in st.cycles:
        if len(cyc) >= lead and all(st.deg[v] == 2 for v in cyc):
            return _path_cover_rewrite(rule, cyc, _cycle_edges(cyc), lead)
    return None


def _branch_chain(st: _State, rule: str) -> RuleStep | None:
    """Branch..branch chain with >= 2 interior vertices -> drop its last edge,
    write the rest as 1, ..., 1, 2 half-units.  At k = 1 every branch vertex
    has degree exactly 3.  `degree2_chains` lists a chain from its smaller end,
    so the edge cut is the one at the larger end."""
    for a, interior, b in st.chains:
        if st.deg[a] >= 3 and st.deg[b] >= 3 and len(interior) >= 2 and a != b:
            return _cut_chain_end(rule, [a, *interior, b], 0)
    return None


def _branch_gap(st: _State, rule: str) -> RuleStep | None:
    """Branch-u-branch gap of length two -> cut u from one side."""
    for a, interior, b in st.chains:
        if st.deg[a] >= 3 and st.deg[b] >= 3 and len(interior) == 1 and a != b:
            u1 = interior[0]
            for x, y in sorted(((a, b), (b, a))):
                # x-u1 can go to 2 half-units, or is there already
                room = sum(st.units[edge(x, w)] for w in st.adj[x]) < 2 * st.k + 1
                if room or st.units[edge(x, u1)] == 2:
                    return RuleStep(rule, (x, u1, y), {edge(u1, y): 0, edge(x, u1): 2})
    return None


def _leaf_branch_chain(st: _State, rule: str) -> RuleStep | None:
    """Leaf..branch chain with 1 or >= 3 interior vertices."""
    for a, interior, b in st.chains:
        if sorted((st.deg[a], st.deg[b])) == [1, 3] and len(interior) not in (0, 2):
            return _leaf_chain_rewrite(rule, st, a, interior, b)
    return None


def _path_component(st: _State, rule: str) -> RuleStep | None:
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


def _leaf_chains(st: _State, rule: str) -> RuleStep | None:
    """The first, by sorted vertex tuple, of the path components with >= 4
    vertices (cut the second edge) and the leaf..branch chains (as above,
    any interior length)."""
    for a, interior, b in st.chains:
        ends = sorted((st.deg[a], st.deg[b]))
        if ends[0] != 1 or not interior:
            continue
        if ends[1] == 1 and len(interior) >= 2:
            order = (a, *interior, b)
            return RuleStep(rule, order, {edge(order[1], order[2]): 0, edge(order[2], order[3]): 2})
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


def _find_rewrite(st: _State) -> RuleStep | None:
    for name_k1, name_k2, scan in _RULES:
        rule = name_k1 if st.k == 1 else name_k2
        if rule is not None:
            rw = scan(st, rule)
            if rw is not None:
                return rw
    return None


# --- driver ---------------------------------------------------------------------


def minimize(h: HalfIntegralAssignment, k: int) -> tuple[HalfIntegralAssignment, RuleTrace]:
    """Rewrite h in place to a fixpoint and return it.  Each step removes at
    least one support edge, so at most ||G|| steps run; every state is
    checked with `verify_fractional` and a violation aborts loudly (it would
    mean a rule fired outside its guard)."""
    g = h.graph
    if not verify_fractional(g, k, h):
        raise InvalidColoredFactor(f"starting assignment is outside the [1, {2 * k + 1}/2] window")
    trace = RuleTrace()
    budget = g.num_edges
    while (rw := _find_rewrite(_State(h, k))) is not None:
        step = _apply(h.units, rw)
        if 0 not in rw.units.values():
            raise ReducerError(f"rule {rw.rule} did not remove an edge at {rw.location}")
        if not verify_fractional(g, k, h):
            bad = [f"{x} half-units on {u}-{v}" for (u, v), x in sorted(step.units.items()) if x not in (0, 1, 2)]
            why = f"wrote {', '.join(bad)}" if bad else f"left the [1, {2 * k + 1}/2] window"
            raise InvalidColoredFactor(f"{step.to_line()} {why}")
        trace.steps.append(step)
        if len(trace) > budget:
            raise ReducerError("rewrite count exceeded the edge budget; non-termination bug")
    return h, trace


def extract_component_factor_detailed(
    g: Graph, k: int
) -> tuple[FactorCertificate | None, HalfIntegralAssignment | None, RuleTrace | None]:
    """(certificate, assignment, trace), all None iff no half-integral
    [1, k+1/2] assignment exists; otherwise every certificate component lies
    in the family k fixes.  The assignment is the flow engine's, unrewritten."""
    h = find_fractional_factor(g, k)
    if h is None:
        return None, None, None
    f, trace = minimize(from_assignment(g, k, h), k)
    entries = _component_entries(g.n, f.support_edges(), k)
    bad = [e for e in entries if e.cls.kind == "other"]
    if bad:
        raise FixpointUnclassified(
            f"fixpoint component {bad[0].vertices} is outside the k = {k} family", f, k
        )
    return FactorCertificate(k, tuple(entries)), h, trace


def _classify(vertices: list[int], edges, k: int) -> ComponentClass:
    """Class of the subgraph on the sorted `vertices` with the given edges,
    relabelled to 0..len-1."""
    index = {v: i for i, v in enumerate(vertices)}
    return classify_component(Graph(len(vertices), [(index[u], index[v]) for u, v in edges]), k)


def _component_entries(n: int, edges, k: int) -> list[ComponentEntry]:
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
        ComponentEntry(tuple(comp), tuple(es), _classify(comp, es, k))
        for comp, es in zip(comps, comp_edges)
    ]


def verify_certificate(g: Graph, cert: FactorCertificate) -> bool:
    """Partition of V, edges present in g and listed once, every class tag re-validates."""
    seen: set[int] = set()
    for entry in cert.components:
        for v in entry.vertices:
            if v in seen or not 0 <= v < g.n:
                return False
            seen.add(v)
    if len(seen) != g.n:
        return False
    for entry in cert.components:
        vset = set(entry.vertices)
        if len({edge(u, v) for u, v in entry.edges}) != len(entry.edges):
            return False
        for u, v in entry.edges:
            if u not in vset or v not in vset or not g.adj[u] >> v & 1:
                return False
        cls = _classify(sorted(vset), entry.edges, cert.k)
        if cls.kind == "other" or cls != entry.cls:
            return False
    return True
