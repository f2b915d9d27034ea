"""Half-integral assignments vs. a brute-force oracle and the unpruned search."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorsmith import factors
from factorsmith.conditions import check_iso_condition
from factorsmith.corpus import enumerate_exhaustive, random_gnp, random_tree
from factorsmith.factors import (
    HalfIntegralAssignment,
    _completable,
    find_fractional_factor,
    verify_fractional,
)
from factorsmith.graphs import Graph
from treeutil import half_degree_units

K2 = Graph(2, [(0, 1)])
P3 = Graph(3, [(0, 1), (1, 2)])
C3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
P5 = Graph(5, [(i, i + 1) for i in range(4)])


def brute_completable(g: Graph, h: list[int], p: int, k: int) -> bool:
    """Independent oracle: with edges[:p] fixed at h[:p], enumerate every
    {0, 1/2, 1} value of the remaining edges."""
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


# The search as it was before the completion oracle: no backjumps, worst
# case exponential.  It fixes which assignment is "first in search order".
def reference_search(g: Graph, k: int) -> HalfIntegralAssignment | None:
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


def units_of(h: HalfIntegralAssignment | None):
    return None if h is None else sorted(h.units.items())


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
                most = max(sum(1 for w in g.neighbors(v) if w in leaves) for v in range(n))
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
        with pytest.raises(ValueError):
            HalfIntegralAssignment(P3, {(0, 1): 1, (1, 2): 1, (0, 2): 1})

    def test_omitted_edge_carries_zero(self):
        """An assignment is its support: an edge left out carries 0, and a
        zero entry is dropped."""
        h = HalfIntegralAssignment(P3, {(0, 1): 2})
        assert h.units == {(0, 1): 2} and h.support_edges() == [(0, 1)]
        assert not verify_fractional(P3, 1, h)  # vertex 2 is left at 0
        h = HalfIntegralAssignment(P3, {(1, 0): 2, (1, 2): 0})
        assert h.units == {(0, 1): 2}
        assert HalfIntegralAssignment(P3, {}).units == {}

    def test_edge_given_twice_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) twice"):
            HalfIntegralAssignment(K2, {(0, 1): 2, (1, 0): 1})
        with pytest.raises(ValueError, match="twice"):
            HalfIntegralAssignment(K2, {(1, 0): 0, (0, 1): 0})

    @pytest.mark.parametrize("value", [True, False, 2.0, 1.0, 3, -1, "2", None])
    def test_value_must_be_int_0_to_2(self, value):
        """No bool and no float: half-units are the ints 0, 1 and 2."""
        with pytest.raises(ValueError, match="half-unit value"):
            HalfIntegralAssignment(K2, {(0, 1): value})

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
    """`_completable` decides whether a fixed prefix of the edge list can be
    completed; the search uses it only to skip subtrees with no solution."""

    @pytest.mark.parametrize("budget", [0, factors.ORACLE_AFTER])
    def test_same_units_as_reference_exhaustive(self, monkeypatch, budget):
        # budget 0: the oracle runs at every dead end
        monkeypatch.setattr(factors, "ORACLE_AFTER", budget)
        for n in range(1, 6):
            for g in enumerate_exhaustive(n):
                for k in (1, 2, 3):
                    assert units_of(find_fractional_factor(g, k)) == units_of(reference_search(g, k))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]),
        st.integers(min_value=0, max_value=3000),
    )
    def test_same_units_as_reference_random(self, n, p, seed):
        g = random_gnp(n, p, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(factors, "ORACLE_AFTER", 0)
            for k in (1, 2):
                assert units_of(find_fractional_factor(g, k)) == units_of(reference_search(g, k))

    def test_matches_brute_completions(self):
        """Random prefixes, including ones already past the upper window.
        The flow decides fractional completions and the brute force
        half-integral ones, so agreement also checks that the first exist
        only when the second do."""
        rng = random.Random(9)
        seen = {False: 0, True: 0}
        for n in range(1, 6):
            for g in enumerate_exhaustive(n):
                for k in (1, 2):
                    for _ in range(2):
                        p = rng.randint(0, g.num_edges)
                        h = [rng.choice((0, 1, 1, 2)) for _ in range(p)]
                        want = brute_completable(g, h, p, k)
                        assert _completable(g.n, g.edges, h, p, 2 * k + 1) == want, (g, h, k)
                        seen[want] += 1
        assert min(seen.values()) > 1000

    def test_quarter_completions_round(self):
        """An integral flow on the double cover is a completion in quarter
        units (x_e = (y_uw + y_wu)/2 half-units).  The oracle is exact only
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
        """The paper's Theorem 1 through the oracle: with an empty prefix it
        answers yes exactly when iso(G - S) <= (k + 1/2)|S| for every S."""
        for n in range(1, 6):
            for g in enumerate_exhaustive(n):
                for k in (1, 2, 3):
                    holds = check_iso_condition(g, Fraction(2 * k + 1, 2)) is None
                    assert _completable(g.n, g.edges, [], 0, 2 * k + 1) == holds, (g, k)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=18),
        st.sampled_from([None, Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)]),
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=1, max_value=3),
    )
    def test_theorem_1_random(self, n, p, seed, k):
        """Theorem 1 on random trees (p None) up to 18 vertices and gnp graphs up to 12."""
        g = random_tree(n, seed) if p is None else random_gnp(min(n, 12), p, seed)
        holds = check_iso_condition(g, Fraction(2 * k + 1, 2)) is None
        assert _completable(g.n, g.edges, [], 0, 2 * k + 1) == holds


def counted_completions(monkeypatch) -> list:
    """Count the search's `_completable` calls through a wrapper."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _completable(*args)

    monkeypatch.setattr(factors, "_completable", counted)
    return calls


def completion_bound(g: Graph) -> int:
    """The oracle budget `find_fractional_factor` states: one call for the
    empty prefix, then at most two per edge."""
    return 1 + 2 * g.num_edges


@pytest.mark.parametrize("seed", [92, 50086])
def test_gnp_mid_hard_seeds(seed, monkeypatch):
    """Both ran past 20 s in the search without the oracle."""
    g = random_gnp(16, Fraction(1, 4), seed)
    calls = counted_completions(monkeypatch)
    t0 = time.perf_counter()
    h = find_fractional_factor(g, 1)
    assert time.perf_counter() - t0 < 2.0
    assert len(calls) <= completion_bound(g)
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
    """Each ran past 20 s in the search without the oracle."""
    calls = counted_completions(monkeypatch)
    t0 = time.perf_counter()
    h = find_fractional_factor(g, k)
    assert time.perf_counter() - t0 < 2.0
    assert len(calls) <= completion_bound(g)
    assert h is None or verify_fractional(g, k, h)


@pytest.mark.parametrize(
    "g",
    [random_tree(100, s) for s in range(6)]
    + [random_gnp(30, Fraction(1, 5), 1), random_gnp(60, Fraction(1, 5), 4)]
    + [random_gnp(16, Fraction(1, 4), s) for s in (92, 50086)],
    ids=[f"tree100-{s}" for s in range(6)] + ["gnp30-1", "gnp60-4", "gnp16-92", "gnp16-50086"],
)
@pytest.mark.parametrize("k", [1, 2])
def test_answer_does_not_depend_on_the_switch(g, k, monkeypatch):
    """The test_large_inputs_finish graphs and the hard gnp-mid seeds: the
    answer built from the first dead end equals the one built after the
    default budget."""
    want = units_of(find_fractional_factor(g, k))
    monkeypatch.setattr(factors, "ORACLE_AFTER", 0)
    assert units_of(find_fractional_factor(g, k)) == want
