"""Half-integral assignments vs. brute-force oracles, and the flow engine's work."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorsmith import flows
from factorsmith.conditions import check_iso_condition
from factorsmith.corpus import enumerate_exhaustive, random_gnp, random_tree
from factorsmith.factors import (
    HalfIntegralAssignment,
    _round_trails,
    find_fractional_factor,
    verify_fractional,
)
from factorsmith.graphs import Graph, mask_to_list
from oracles import brute_completable, brute_least_units, least_flows, reference_search, tree_least_units
from treeutil import counted_flows, half_degree_units

K2 = Graph(2, [(0, 1)])
P3 = Graph(3, [(0, 1), (1, 2)])
C3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
P5 = Graph(5, [(i, i + 1) for i in range(4)])


class TestConditionWitness:
    """The paper's condition iso(G-S) <= (k+1/2)|S| at k = 1, on G itself,
    for the small graphs whose half-unit degrees are searched below."""

    def test_p3_has_violator(self):
        w = check_iso_condition(P3, Fraction(3, 2))
        assert w is not None
        # removing the middle vertex strands both ends
        assert w.removed == frozenset({1})
        assert w.isolated == frozenset({0, 2})

    def test_k2_none(self):
        assert check_iso_condition(K2, Fraction(3, 2)) is None

    def test_c3_none(self):
        assert check_iso_condition(C3, Fraction(3, 2)) is None

    def test_single_vertex_empty_set_violates(self):
        w = check_iso_condition(Graph(1), Fraction(3, 2))
        assert w is not None and w.removed == frozenset()


class TestHalfUnitDegrees:
    """Every vertex of `find_fractional_factor`'s answer has half-unit
    degree in [2, 2k+1]."""

    def test_k2_degrees(self):
        h = find_fractional_factor(K2, 1)
        assert h is not None
        assert [half_degree_units(h, v) for v in range(2)] == [2, 2]

    def test_p3_none(self):
        assert find_fractional_factor(P3, 1) is None

    def test_p5_degrees(self):
        h = find_fractional_factor(P5, 1)
        assert h is not None
        assert all(2 <= half_degree_units(h, v) <= 3 for v in range(5))


class TestFractional:
    def test_c3_k1(self):
        h = find_fractional_factor(C3, 1)
        assert h is not None and verify_fractional(C3, 1, h)

    def test_p3_none(self):
        assert find_fractional_factor(P3, 1) is None

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_star_k_plus_one_none(self, k):
        star = Graph(k + 2, [(0, i) for i in range(1, k + 2)])
        assert find_fractional_factor(star, k) is None

    def test_k_guard(self):
        with pytest.raises(ValueError):
            find_fractional_factor(C3, 0)

    def test_brute_agreement_exhaustive(self):
        for n in range(1, 6):
            for g in enumerate_exhaustive(n):
                for k in (1, 2, 3):
                    has = find_fractional_factor(g, k) is not None
                    assert has == brute_completable(g, [], 0, k)

    def test_pendant_edges_carry_one_exhaustive(self):
        """A leaf reaches weight 1 only through its one edge, so every
        assignment puts 2 half-units on each pendant edge, and no factor
        exists once a vertex has more than k leaf neighbours."""
        found = overloaded = 0
        for n in range(1, 7):
            for g in enumerate_exhaustive(n):
                leaves = [v for v in range(n) if g.degree(v) == 1]
                pendant = [e for e in g.edges if e[0] in leaves or e[1] in leaves]
                most = max(sum(1 for w in mask_to_list(g.adj[v]) if w in leaves) for v in range(n))
                for k in (1, 2, 3):
                    h = find_fractional_factor(g, k)
                    if most > k:
                        assert h is None
                        overloaded += 1
                    if h is not None:
                        assert all(h.units.get(e) == 2 for e in pendant)
                        found += 1
        assert (found, overloaded) == (81_775, 3_456)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=3000))
    def test_brute_agreement_random(self, n, seed):
        g = random_gnp(n, Fraction(1, 2), seed)
        assert (find_fractional_factor(g, 1) is not None) == brute_completable(g, [], 0, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=3000))
    def test_returned_assignment_always_verifies(self, n, seed):
        g = random_gnp(n, Fraction(1, 2), seed)
        for k in (1, 2):
            h = find_fractional_factor(g, k)
            if h is not None:
                assert verify_fractional(g, k, h)


class TestVerifyFractional:
    def test_p5_canonical(self):
        h = HalfIntegralAssignment(P5, {(0, 1): 2, (1, 2): 1, (2, 3): 1, (3, 4): 2})
        assert verify_fractional(P5, 1, h)

    def test_k2_half_fails(self):
        h = HalfIntegralAssignment(K2, {(0, 1): 1})
        assert not verify_fractional(K2, 1, h)

    def test_c3_all_ones_at_k2(self):
        h = HalfIntegralAssignment(C3, {e: 2 for e in C3.edges})
        assert verify_fractional(C3, 2, h)
        assert not verify_fractional(C3, 1, h)

    def test_non_edge_rejected(self):
        """Every degree stays in the window, so only the key checks refuse:
        a non-edge, and keys outside 0..n-1."""
        h = HalfIntegralAssignment(P3, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
        assert not verify_fractional(P3, 1, h)
        for e in ((-1, 1), (3, 4)):
            h = HalfIntegralAssignment(P3, {(0, 1): 2, (1, 2): 2, e: 1})
            assert not verify_fractional(P3, 2, h)

    def test_omitted_edge_carries_zero(self):
        """An assignment is its support, stored as given: an edge left out
        carries 0, and a zero entry or a reversed key is refused."""
        h = HalfIntegralAssignment(P3, {(0, 1): 2})
        assert h.units == {(0, 1): 2} and h.support_edges() == [(0, 1)]
        assert not verify_fractional(P3, 1, h)  # vertex 2 is left at 0
        h = HalfIntegralAssignment(P3, {(1, 0): 2, (1, 2): 0})
        assert not verify_fractional(P3, 1, h)
        assert HalfIntegralAssignment(P3, {}).units == {}

    def test_edge_given_twice_rejected(self):
        """Both degrees would be 3, inside the k = 1 window."""
        h = HalfIntegralAssignment(K2, {(0, 1): 2, (1, 0): 1})
        assert not verify_fractional(K2, 1, h)
        h = HalfIntegralAssignment(K2, {(1, 0): 0, (0, 1): 0})
        assert not verify_fractional(K2, 1, h)

    def test_units_written_after_construction(self):
        """The check reads `h.units` as it stands, as `minimize` leaves it;
        each write below keeps every degree in the k = 2 window."""
        h = HalfIntegralAssignment(K2, {(0, 1): 2})
        h.units[(0, 1)] = 3
        assert not verify_fractional(K2, 2, h)
        for e in ((0, 2), (1, 0)):
            h = HalfIntegralAssignment(P3, {(0, 1): 2, (1, 2): 2})
            assert verify_fractional(P3, 2, h)
            h.units[e] = 1
            assert not verify_fractional(P3, 2, h)

    def test_parameter_and_graph_guards(self):
        """k < 1 is refused, and so is an assignment built for another graph;
        an equal graph built separately is the same graph."""
        h = HalfIntegralAssignment(K2, {(0, 1): 2})
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"^parameter k must be >= 1, got {k}$"):
                verify_fractional(K2, k, h)
        with pytest.raises(ValueError, match="^assignment was built for a different graph$"):
            verify_fractional(Graph(3, [(0, 1)]), 1, h)
        assert verify_fractional(Graph(2, [(0, 1)]), 1, h)

    @pytest.mark.parametrize("value", [0, True, False, 2.0, 1.0, 3, -1, "2", None])
    def test_value_must_be_int_0_to_2(self, value):
        """No zero, no bool and no float: a support edge carries the int 1
        or 2.  At k = 2, 2.0 and 3 would keep both degrees in the window."""
        assert not verify_fractional(K2, 2, HalfIntegralAssignment(K2, {(0, 1): value}))

    def test_condition_necessity_sum(self):
        # for a verified assignment, iso(G-S) <= sum of h-degrees over S
        from itertools import combinations

        for seed in range(30):
            g = random_gnp(7, Fraction(1, 2), seed)
            for k in (1, 2):
                h = find_fractional_factor(g, k)
                if h is None:
                    continue
                units = [half_degree_units(h, v) for v in range(g.n)]
                for size in range(g.n + 1):
                    for subset in combinations(range(g.n), size):
                        smask = sum(1 << v for v in subset)
                        iso = sum(
                            1
                            for v in range(g.n)
                            if not smask >> v & 1 and g.adj[v] & ~smask == 0
                        )
                        total_units = sum(units[v] for v in subset)
                        assert 2 * iso <= total_units
                        assert total_units <= (2 * k + 1) * size


class TestCompletionOracle:
    """The flow engine answers the completion question for the empty prefix:
    whether any weighting exists, against the reference search, brute force,
    Theorem 1 and the quarter-unit relaxation, and how light the one it
    returns is."""

    @pytest.mark.parametrize("seed", [0, 16])
    def test_same_units_as_reference_exhaustive(self, seed):
        """Against the depth-first reference search on every labelled graph
        with n <= 5 at k = 1, 2, 3, with its vertices relabelled by a
        permutation drawn from `seed` (0: as enumerated): the same verdict,
        no more half-units in all than the reference's answer, and the same
        total as on the graph as enumerated, since both totals are least."""
        for n in range(1, 6):
            perm = list(range(n))
            if seed:
                random.Random(seed + n).shuffle(perm)
            for g in enumerate_exhaustive(n):
                relabelled = Graph(n, [(perm[u], perm[w]) for u, w in g.edges])
                for k in (1, 2, 3):
                    h = find_fractional_factor(relabelled, k)
                    ref = reference_search(relabelled, k)
                    assert (h is None) == (ref is None), (g, k)
                    if h is None:
                        continue
                    total = sum(h.units.values())
                    assert total <= sum(ref.units.values()), (g, k)
                    assert total == sum(find_fractional_factor(g, k).units.values()), (g, k)

    def test_matches_brute_completions(self):
        """Every labelled graph with n <= 5 at k = 1, 2, 3: None exactly when
        the brute force finds no weighting, and otherwise the brute-force
        least total of half-units."""
        for n in range(1, 6):
            for g in enumerate_exhaustive(n):
                least = brute_least_units(g, (1, 2, 3))
                for k in (1, 2, 3):
                    h = find_fractional_factor(g, k)
                    assert (None if h is None else sum(h.units.values())) == least[k], (g, k)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=1, max_value=3),
    )
    def test_least_units_on_bipartite_graphs(self, a, b, seed, k):
        """A bipartite graph has no closed trail of odd length, so rounding
        never raises the least flow's total: the answer has the brute-force
        least total of half-units.  Random subgraphs of K_{a,b}, up to 12
        edges."""
        rng = random.Random(seed)
        g = Graph(a + b, [(u, a + w) for u in range(a) for w in range(b) if rng.random() < 0.6])
        h = find_fractional_factor(g, k)
        assert (None if h is None else sum(h.units.values())) == brute_least_units(g, (k,))[k]

    @pytest.mark.parametrize("n", [18, 30])
    def test_least_units_on_trees(self, n):
        """Trees are bipartite, so the answer is least: its total equals the
        tree programme's on `random_tree(n, s)` for s < 100 at k = 1, 2.
        This needs the flow from t back to s; the feasible flow alone lands
        above the least on some of these."""
        for s in range(100):
            t = random_tree(n, s)
            for k in (1, 2):
                h = find_fractional_factor(t, k)
                assert (None if h is None else sum(h.units.values())) == tree_least_units(t, k), (s, k)

    def test_quarter_completions_round(self):
        """An integral flow on the double cover is a completion in quarter
        units (x_e = (y_uw + y_wu)/2 half-units).  The engine is exact only
        if such a completion can always be rounded to half-units; check
        that directly, without the flow, on suffixes of up to 5 edges."""
        rng = random.Random(4)
        for n in range(2, 6):
            for g in enumerate_exhaustive(n):
                m = g.num_edges
                for k in (1, 2):
                    p = rng.randint(max(0, m - 5), m)
                    h = [rng.choice((0, 1, 1, 2)) for _ in range(p)]
                    fixed = [0] * n
                    for (u, v), x in zip(g.edges[:p], h):
                        fixed[u] += 2 * x
                        fixed[v] += 2 * x
                    quarter = False
                    for vals in product(range(5), repeat=m - p):
                        units = fixed[:]
                        for (u, v), x in zip(g.edges[p:], vals):
                            units[u] += x
                            units[v] += x
                        if all(4 <= s <= 4 * k + 2 for s in units):
                            quarter = True
                            break
                    assert quarter == brute_completable(g, h, p, k), (g, h, k)

    def test_theorem_1_exhaustive(self):
        """The paper's Theorem 1 through the engine: it finds a weighting
        exactly when iso(G - S) <= (k + 1/2)|S| for every S, and so does the
        least flow on B(G) with the window [2, 2k+1], with no mask refusal
        in front of it."""
        for n in range(1, 6):
            for g in enumerate_exhaustive(n):
                for k in (1, 2, 3):
                    holds = check_iso_condition(g, Fraction(2 * k + 1, 2)) is None
                    assert (find_fractional_factor(g, k) is not None) == holds, (g, k)
                    assert (flows.least_flow(g.n, g.edges, 2, 2 * k + 1) is not None) == holds, (g, k)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=18),
        st.sampled_from([None, Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)]),
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=1, max_value=3),
    )
    def test_theorem_1_random(self, n, p, seed, k):
        """Theorem 1 on random trees (p None) up to 18 vertices and gnp graphs
        up to 12, through the engine and through the least flow alone."""
        g = random_tree(n, seed) if p is None else random_gnp(min(n, 12), p, seed)
        holds = check_iso_condition(g, Fraction(2 * k + 1, 2)) is None
        assert (find_fractional_factor(g, k) is not None) == holds
        assert (flows.least_flow(g.n, g.edges, 2, 2 * k + 1) is not None) == holds


def rounded(ends, q, k):
    """`_round_trails` on quarter-units q over the edges `ends`; returns the
    new q and checks that the degrees it kept match them and stay in
    [4, 4k+2]."""
    n = 1 + max(max(e) for e in ends)
    deg = [0] * n
    for (u, w), x in zip(ends, q):
        deg[u] += x
        deg[w] += x
    assert all(4 <= d <= 4 * k + 2 for d in deg)
    q = list(q)
    _round_trails(ends, q, deg)
    assert all(x in (0, 2, 4) for x in q)
    want = [0] * n
    for (u, w), x in zip(ends, q):
        want[u] += x
        want[w] += x
    assert deg == want
    assert all(4 <= d <= 4 * k + 2 for d in deg)
    return q


class TestRounding:
    """`_round_trails` on hand-made quarter-unit weightings; the flow rarely
    leaves odd quarter-units (435 of the 98,304 checks with n = 6, all on
    closed trails)."""

    def test_odd_closed_trail_moves_down(self):
        """C3 at 3 quarter-units per edge and k = 1: every degree is 6, the
        top of the window, so the trail's start moves down by 2."""
        q = rounded([(0, 1), (1, 2), (0, 2)], [3, 3, 3], 1)
        assert sorted(q) == [2, 2, 4]

    def test_odd_closed_trail_moves_up(self):
        """The prism at k = 1 with its inner triangle at 1 quarter-unit per
        edge: the triangle's degrees all sit at the bottom of the window, 4,
        so the trail's start moves up by 2."""
        inner = [(0, 1), (1, 2), (0, 2)]
        spokes = [(0, 3), (1, 4), (2, 5)]
        outer = [(3, 4), (4, 5), (3, 5)]
        q = rounded(inner + spokes + outer, [1, 1, 1] + [2] * 6, 1)
        assert sorted(q[:3]) == [0, 2, 2] and q[3:] == [2] * 6

    def test_odd_closed_trail_starts_at_six(self):
        """A triangle at 1 quarter-unit per edge at k = 2 whose vertex 2
        sits at degree 6 and vertices 0 and 1 at 4: vertices at 6 or more
        start first, so the trail moves vertex 2 down, not vertex 0 up."""
        ends = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 5), (2, 4), (3, 5)]
        assert rounded(ends, [1, 1, 1, 2, 2, 4, 2], 2) == [2, 0, 0, 2, 2, 4, 2]

    def test_open_trails_never_raise_the_total(self):
        """One open trail of length 1 (P4 at k = 1) and one of length 3 (P6
        at k = 2): each starts at -1, so the total falls by 1."""
        assert rounded([(0, 1), (1, 2), (2, 3)], [4, 1, 4], 1) == [4, 0, 4]
        p6 = [(i, i + 1) for i in range(5)]
        assert rounded(p6, [4, 3, 1, 3, 4], 2) == [4, 2, 2, 2, 4]


    def test_even_closed_trail_keeps_degrees(self):
        """C4 at 3 quarter-units per edge and k = 1: a closed trail of even
        length moves no degree."""
        assert rounded([(0, 1), (1, 2), (2, 3), (0, 3)], [3, 3, 3, 3], 1) == [4, 2, 4, 2]

    def test_open_trail_ends_inside_a_closed_one(self):
        """A triangle at 3 quarter-units per edge whose vertex 0 also ends the
        open trail 0-3, at k = 2: the open trail goes first and leaves vertex
        0 at an even degree, then the triangle rounds down from it."""
        q = rounded([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)], [3, 3, 3, 1, 4], 2)
        assert q[3:] == [0, 4] and sorted(q[:3]) == [2, 2, 4]


class TestFlow:
    """`flows.max_flow` between any two nodes, and the work the engine spends."""

    def test_max_flow_between_named_nodes(self):
        """Two paths 3 -> 0 -> 2 and 3 -> 1 -> 2 of capacities 2 and 1; the
        residual capacities show the flow on each arc."""
        heads, to, cap = flows.network([(3, 0, 2), (0, 2, 5), (3, 1, 4), (1, 2, 1)], 4)
        assert flows.max_flow(heads, to, cap, 3, 2, 10) == 3
        assert [cap[a ^ 1] for a in range(0, 8, 2)] == [2, 2, 1, 1]
        assert flows.max_flow(heads, to, cap, 2, 3, 10) == 3  # and all of it back

    def test_max_flow_stops_at_limit(self):
        heads, to, cap = flows.network([(0, 1, 5)], 2)
        assert flows.max_flow(heads, to, cap, 0, 1, 3) == 3
        assert cap == [2, 3]

    def test_no_weighting_after_both_flows(self, monkeypatch):
        """K2,5 at k = 1 has no leaf, and S = the two hubs isolates five
        vertices: the two flows together fall short of the demand."""
        g = Graph(7, [(u, w) for u in range(2) for w in range(2, 7)])
        calls = counted_flows(monkeypatch)
        assert find_fractional_factor(g, 1) is None
        assert len(calls) == 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pendant_edges_alone_carry_two(self, k):
        """A matching and the star K1,k are all pendant edges, and the
        window alone puts 2 half-units on each."""
        matching = Graph(6, [(0, 1), (2, 3), (4, 5)])
        assert find_fractional_factor(matching, k).units == dict.fromkeys(matching.edges, 2)
        star = Graph(k + 1, [(0, i) for i in range(1, k + 1)])
        assert find_fractional_factor(star, k).units == dict.fromkeys(star.edges, 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_overloaded_leaf_centre_is_refused_from_the_masks(self, monkeypatch, k):
        """K1,k+1, and a spider with k+1 legs of length 1 and two of length 3:
        the centre has k+1 leaf neighbours, so the engine says None before it
        lists an edge or runs a flow."""
        star = Graph(k + 2, [(0, i) for i in range(1, k + 2)])
        legs = [(0, i) for i in range(1, k + 2)]
        for a in (k + 2, k + 5):
            legs += [(0, a), (a, a + 1), (a + 1, a + 2)]
        spider = Graph(k + 8, legs)
        calls = counted_flows(monkeypatch)
        listed = []
        edges = Graph.edges
        monkeypatch.setattr(Graph, "edges", property(lambda g: listed.append(g) or edges.fget(g)))
        assert find_fractional_factor(star, k) is None
        assert find_fractional_factor(spider, k) is None
        assert calls == [] and listed == []

    def test_refusal_is_the_small_witness_exhaustive(self, monkeypatch):
        """On every labelled graph with n <= 6 at k = 1, 2, 3, the engine
        says None before any max flow exactly where the condition's witness
        at c = k+1/2 has size 0 or 1."""
        calls = counted_flows(monkeypatch)
        checks = 0
        for n in range(1, 7):
            for g in enumerate_exhaustive(n):
                for k in (1, 2, 3):
                    w = check_iso_condition(g, Fraction(2 * k + 1, 2))
                    calls.clear()
                    refused = find_fractional_factor(g, k) is None and not calls
                    assert refused == (w is not None and len(w.removed) <= 1), (g, k)
                    checks += 1
        assert checks == 101_601

    def test_isolated_vertex_and_empty_graph(self):
        assert find_fractional_factor(Graph(3, [(0, 1)]), 1) is None
        assert find_fractional_factor(Graph(0), 1).units == {}

    def test_least_flow_against_every_flow(self):
        """`least_flow` is None exactly when no flow fits the window, and
        otherwise the per-edge sums of some least flow: on 300 random windows
        over graphs with <= 3 edges, and on eight fixed ones that catch a
        changed network.  The first two have no edge, so the empty answer
        fits only where no vertex needs flow.  The third needs each arc of
        its edge to carry 3, which capacity 2 forbids; in the fourth, C4 at
        [3, 3], an arc of capacity 3 would let one edge carry 5.  In the next
        two a max flow with t -> s open from the start overshoots the least
        flow, by 1 and by 2.  In the last two, one edge at [2, 2] and P3 at
        [2, 4], the first max flow sends 4 of the demand 8 and 12, and the
        least flow fills every edge arc, so t -> s must open at the capacity
        of all edge arcs."""
        rng = random.Random(0)
        cases = [
            (0, [], 2, 3),
            (3, [], 2, 3),
            (2, [(0, 1)], 3, 3),
            (4, [(0, 1), (0, 3), (1, 2), (2, 3)], 3, 3),
            (5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3)], 1, 2),
            (5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 3)], 2, 4),
            (2, [(0, 1)], 2, 2),
            (3, [(0, 1), (1, 2)], 2, 4),
        ]
        for _ in range(300):
            n = rng.randint(2, 4)
            pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
            edges = sorted(rng.sample(pairs, rng.randint(1, min(3, len(pairs)))))
            lo = rng.randint(0, 4)
            cases.append((n, edges, lo, lo + rng.randint(0, 3)))
        feasible = 0
        for n, edges, lo, hi in cases:
            best = least_flows(n, edges, lo, hi)
            q = flows.least_flow(n, edges, lo, hi)
            assert (q is None) == (not best), (n, edges, lo, hi)
            if q is not None:
                assert tuple(q) in best, (n, edges, lo, hi, q)
                feasible += 1
        assert feasible == 166


@pytest.mark.parametrize("seed", [92, 50086])
def test_gnp_mid_hard_seeds(seed, monkeypatch):
    """Both ran past 20 s in the depth-first search that came before the flow."""
    g = random_gnp(16, Fraction(1, 4), seed)
    calls = counted_flows(monkeypatch)
    t0 = time.perf_counter()
    h = find_fractional_factor(g, 1)
    assert time.perf_counter() - t0 < 2.0
    assert len(calls) <= 2
    assert (h is None) == (check_iso_condition(g, Fraction(3, 2)) is not None)
    assert h is None or verify_fractional(g, 1, h)


@pytest.mark.parametrize(
    "g",
    [random_tree(100, s) for s in range(6)]
    + [random_gnp(30, Fraction(1, 5), 1), random_gnp(60, Fraction(1, 5), 4)],
    ids=[f"tree100-{s}" for s in range(6)] + ["gnp30-1", "gnp60-4"],
)
@pytest.mark.parametrize("k", [1, 2])
def test_large_inputs_finish(g, k, monkeypatch):
    """Each ran past 20 s in the depth-first search that came before the flow."""
    calls = counted_flows(monkeypatch)
    t0 = time.perf_counter()
    h = find_fractional_factor(g, k)
    assert time.perf_counter() - t0 < 2.0
    assert len(calls) <= 2
    assert h is None or verify_fractional(g, k, h)
