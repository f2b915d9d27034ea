"""Degree-window factors and half-integral assignments vs. brute oracles."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorsmith.corpus import enumerate_exhaustive, random_gnp
from factorsmith.factors import (
    DegreeBounds,
    HalfIntegralAssignment,
    find_fractional_factor,
    find_gf_factor_backtracking,
    find_gf_factor_via_matching,
    gf_condition_witness,
    verify_fractional,
)
from factorsmith.graphs import Graph, MultiGraph, double

K2 = Graph(2, [(0, 1)])
P3 = Graph(3, [(0, 1), (1, 2)])
C3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
P5 = Graph(5, [(i, i + 1) for i in range(4)])


def bounds23(n: int) -> DegreeBounds:
    return DegreeBounds.uniform(n, 2, 3)


def brute_gf_exists(m: MultiGraph, b: DegreeBounds) -> bool:
    """Independent oracle: enumerate every copy-count vector."""
    groups = m.groups
    for counts in product(*[range(mult + 1) for _, _, mult in groups]):
        deg = [0] * m.n
        for (u, v, _), c in zip(groups, counts):
            deg[u] += c
            deg[v] += c
        if all(b.lower[v] <= deg[v] <= b.upper[v] for v in range(m.n)):
            return True
    return False


def brute_fractional_exists(g: Graph, k: int) -> bool:
    """Independent oracle: enumerate every {0, 1/2, 1} assignment."""
    for vals in product((0, 1, 2), repeat=g.num_edges):
        units = [0] * g.n
        for (u, v), h in zip(g.edges, vals):
            units[u] += h
            units[v] += h
        if all(2 <= s <= 2 * k + 1 for s in units):
            return True
    return False


class TestDegreeBounds:
    def test_strictness_required(self):
        with pytest.raises(ValueError):
            DegreeBounds.uniform(3, 2, 2)
        with pytest.raises(ValueError):
            DegreeBounds((0, 1), (1,))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DegreeBounds((-1,), (2,))


class TestConditionWitness:
    def test_doubled_p3_has_violator(self):
        w = gf_condition_witness(double(P3), bounds23(3))
        assert w is not None
        # removing the middle vertex strands both ends below their lower bound
        assert w == frozenset({1})

    def test_doubled_k2_none(self):
        assert gf_condition_witness(double(K2), bounds23(2)) is None

    def test_doubled_c3_none(self):
        assert gf_condition_witness(double(C3), bounds23(3)) is None

    def test_single_vertex_empty_set_violates(self):
        m = MultiGraph(1)
        assert gf_condition_witness(m, DegreeBounds.uniform(1, 2, 3)) == frozenset()


class TestFindGfFactor:
    def test_doubled_k2(self):
        f = find_gf_factor_backtracking(double(K2), bounds23(2))
        assert f is not None and f.degrees() == [2, 2]

    def test_doubled_p3_none(self):
        assert find_gf_factor_backtracking(double(P3), bounds23(3)) is None

    def test_doubled_p5_degrees(self):
        f = find_gf_factor_backtracking(double(P5), bounds23(5))
        assert f is not None
        assert all(2 <= d <= 3 for d in f.degrees())

    def test_engines_and_witness_agree_exhaustive(self):
        bad = []
        for n in range(1, 5):
            for g in enumerate_exhaustive(n):
                for k in (1, 2):
                    m = double(g)
                    b = DegreeBounds.uniform(n, 2, 2 * k + 1)
                    bt = find_gf_factor_backtracking(m, b)
                    gd = find_gf_factor_via_matching(m, b)
                    wt = gf_condition_witness(m, b)
                    brute = brute_gf_exists(m, b)
                    verdicts = {bt is not None, gd is not None, wt is None, brute}
                    if len(verdicts) != 1:
                        bad.append((n, g.edges, k))
        assert bad == []

    def test_mixed_multiplicity_groups(self):
        # triangle with one doubled edge: (1,2)-factor exists (e.g. one copy each side)
        m = MultiGraph(3, [(0, 1, 2), (1, 2, 1), (0, 2, 1)])
        b = DegreeBounds.uniform(3, 1, 2)
        f = find_gf_factor_backtracking(m, b)
        assert f is not None
        assert brute_gf_exists(m, b)
        assert find_gf_factor_via_matching(m, b) is not None

    def test_dispatch_uses_both_engines(self):
        small = double(K2)
        assert find_gf_factor_backtracking(small, bounds23(2)) is not None
        big = double(Graph(7, [(i, j) for i in range(7) for j in range(i + 1, 7)]))
        assert big.edge_copy_count > 40
        f = find_gf_factor_via_matching(big, DegreeBounds.uniform(7, 2, 5))
        assert f is not None and all(2 <= d <= 5 for d in f.degrees())

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=3000))
    def test_gadget_agrees_randomly(self, n, seed):
        g = random_gnp(n, Fraction(1, 2), seed)
        m = double(g)
        b = DegreeBounds.uniform(n, 2, 3)
        assert (find_gf_factor_backtracking(m, b) is None) == (
            find_gf_factor_via_matching(m, b) is None
        )


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
        for n in range(1, 5):
            for g in enumerate_exhaustive(n):
                for k in (1, 2):
                    assert (find_fractional_factor(g, k) is not None) == brute_fractional_exists(
                        g, k
                    )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=3000))
    def test_brute_agreement_random(self, n, seed):
        g = random_gnp(n, Fraction(1, 2), seed)
        assert (find_fractional_factor(g, 1) is not None) == brute_fractional_exists(g, 1)

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

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError):
            HalfIntegralAssignment(P3, {(0, 1): 1})

    def test_condition_necessity_sum(self):
        # for a verified assignment, iso(G-S) <= sum of h-degrees over S
        from itertools import combinations

        for seed in range(30):
            g = random_gnp(7, Fraction(1, 2), seed)
            for k in (1, 2):
                h = find_fractional_factor(g, k)
                if h is None:
                    continue
                units = [h.half_degree_units(v) for v in range(g.n)]
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
