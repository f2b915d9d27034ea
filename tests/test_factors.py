"""Half-integral assignments vs. a brute-force oracle."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorsmith.conditions import check_iso_condition
from factorsmith.corpus import enumerate_exhaustive, random_gnp
from factorsmith.factors import HalfIntegralAssignment, find_fractional_factor, verify_fractional
from factorsmith.graphs import Graph

K2 = Graph(2, [(0, 1)])
P3 = Graph(3, [(0, 1), (1, 2)])
C3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
P5 = Graph(5, [(i, i + 1) for i in range(4)])


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


class TestConditionWitness:
    """The paper's condition iso(G-S) <= (k+1/2)|S| at k = 1 on the small
    graphs whose half-unit degree windows [2, 3] are searched below."""

    def test_doubled_p3_has_violator(self):
        w = check_iso_condition(P3, Fraction(3, 2))
        assert w is not None
        # removing the middle vertex strands both ends
        assert w.removed == frozenset({1})
        assert w.isolated == frozenset({0, 2})

    def test_doubled_k2_none(self):
        assert check_iso_condition(K2, Fraction(3, 2)) is None

    def test_doubled_c3_none(self):
        assert check_iso_condition(C3, Fraction(3, 2)) is None

    def test_single_vertex_empty_set_violates(self):
        w = check_iso_condition(Graph(1), Fraction(3, 2))
        assert w is not None and w.removed == frozenset()


class TestFindGfFactor:
    """Half-unit degrees of the search's answer are the degrees of a
    [2, 2k+1]-factor of G with every edge doubled."""

    def test_doubled_k2(self):
        h = find_fractional_factor(K2, 1)
        assert h is not None
        assert [h.half_degree_units(v) for v in range(2)] == [2, 2]

    def test_doubled_p3_none(self):
        assert find_fractional_factor(P3, 1) is None

    def test_doubled_p5_degrees(self):
        h = find_fractional_factor(P5, 1)
        assert h is not None
        assert all(2 <= h.half_degree_units(v) <= 3 for v in range(5))


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
