"""Rewrite engine: pinned traces and rule counts, and the theorem's equivalence.

The corpus is every labelled graph with n <= 5 and every free tree with
n <= 11, each at k = 1, 2, 3, plus two gnp(16, 1/4) graphs at k = 1 that make
the rare rules R2 and R5 fire.  The digest and the fire counts pin the exact
rewrite sequence, so a change to rule order, candidate choice or trace text
shows up here.  They pin `minimize`, not the factor engine: the rewrites
start from the fixed assignment of `oracles.reference_search`.
"""

import hashlib
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorsmith import reducer
from factorsmith.conditions import check_iso_condition
from factorsmith.corpus import (
    enumerate_exhaustive,
    free_trees_upto,
    random_gnp,
    random_tree_expansion,
)
from factorsmith.factors import HalfIntegralAssignment, find_fractional_factor
from factorsmith.families import (
    OTHER,
    P2,
    P5,
    ComponentClass,
    classify_component,
    expand_core_tree,
    star,
    tree_expansion,
)
from factorsmith.graphs import Graph, encode_graph6
from factorsmith.reducer import (
    ComponentEntry,
    FactorCertificate,
    FixpointUnclassified,
    extract_component_factor_detailed,
    from_assignment,
    minimize,
    verify_certificate,
)
from oracles import all_cycles, reference_search
from treeutil import counted_flows, random_degrees_2_to_4

CORPUS_CHECKS = 4607
CORPUS_DIGEST = "80d867cad4ebe69cbbeff7d24b5ba35628d502a52c7ab496c3d870d1fc108e07"
RULE_COUNTS = {
    "R1": 32, "R2": 1, "R3": 168, "R4": 112, "R5": 2, "R6": 17, "R7": 74, "R8": 21,
    "S1": 965, "S2": 495, "S3": 321, "S4": 173, "S5": 61, "S6": 91, "S7": 2292,
}


def _corpus():
    for n in range(1, 6):
        for g in enumerate_exhaustive(n):
            for k in (1, 2, 3):
                yield g, k
    for g in free_trees_upto(11):
        for k in (1, 2, 3):
            yield g, k
    for seed in (6, 80):
        yield random_gnp(16, Fraction(1, 4), seed), 1


@cache
def _results():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reducer, "find_fractional_factor", reference_search)
        return [(g, k, extract_component_factor_detailed(g, k)) for g, k in _corpus()]


def _record(g, k, cert, trace) -> str:
    head = f"{encode_graph6(g)} k={k}\n"
    if cert is None:
        return head + "none\n"
    labels = ",".join(e.cls.label for e in cert.components)
    return head + trace.to_text() + f"# {labels}\n"


class TestPinned:
    def test_corpus_size(self):
        assert len(_results()) == CORPUS_CHECKS

    def test_trace_digest(self):
        h = hashlib.sha256()
        for g, k, (cert, _h, trace) in _results():
            h.update(_record(g, k, cert, trace).encode())
        assert h.hexdigest() == CORPUS_DIGEST

    def test_rule_fire_counts(self):
        counts = Counter(
            s.rule for _g, _k, (cert, _h, trace) in _results() if cert is not None for s in trace.steps
        )
        assert dict(counts) == RULE_COUNTS


class TestEquivalence:
    def test_exhaustive_small(self):
        """n <= 6, k in {1, 2, 3}: condition at (2k+1)/2 holds iff a
        certificate comes back, and every certificate and trace is sound."""
        for n in range(1, 7):
            for g in enumerate_exhaustive(n):
                for k in (1, 2, 3):
                    holds = check_iso_condition(g, Fraction(2 * k + 1, 2)) is None
                    cert, _h, trace = extract_component_factor_detailed(g, k)
                    assert holds == (cert is not None), (encode_graph6(g), k)
                    if cert is None:
                        continue
                    assert verify_certificate(g, cert)
                    assert len(trace) <= g.num_edges
                    assert not {s.rule for s in trace.steps} & {"S8", "S9"}

    def test_unclassified_fixpoint_raises_with_state(self, monkeypatch):
        """A fixpoint component outside the family raises at once and carries
        the fixpoint assignment, whose graph and k replay the extraction."""
        g = random_gnp(16, Fraction(1, 4), 6)
        assert g.num_edges > 16
        expected, _ = minimize(from_assignment(g, 1, find_fractional_factor(g, 1)), 1)
        monkeypatch.setattr(reducer, "classify_component", lambda t, k: OTHER)
        t0 = time.perf_counter()
        with pytest.raises(FixpointUnclassified) as info:
            extract_component_factor_detailed(g, 1)
        assert time.perf_counter() - t0 < 5.0
        assert "exhaustive" not in str(info.value)
        f = info.value.factor
        assert f.graph is g and info.value.k == 1
        assert f.units == expected.units


class TestMinimize:
    def test_long_cycle_leaves_recursion_limit(self):
        """The cycle scan is iterative: a 5000-cycle needs no deeper stack."""
        n = 5000
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        limit = sys.getrecursionlimit()
        f, trace = minimize(HalfIntegralAssignment(g, dict.fromkeys(g.edges, 1)), 1)
        assert sys.getrecursionlimit() == limit
        assert [s.rule for s in trace.steps] == ["R1"]
        assert sorted(f.units.values()) == [2] * (n // 2)

    def test_every_state_is_its_support(self):
        """Over every labelled graph with n <= 5 at k = 1, 2, 3, the search's
        assignment, the copy `minimize` edits and its fixpoint store only
        edges of the graph at 1 or 2 half-units, and their support edges are
        their sorted keys."""
        for n in range(1, 6):
            for g in enumerate_exhaustive(n):
                edges = set(g.edges)
                for k in (1, 2, 3):
                    h = find_fractional_factor(g, k)
                    if h is None:
                        continue
                    copy = from_assignment(g, k, h)
                    assert copy.units == h.units and copy.units is not h.units
                    f, _trace = minimize(copy, k)
                    for a in (h, f):
                        assert 0 not in a.units.values()
                        assert a.units.keys() <= edges
                        assert a.support_edges() == sorted(a.units)

    def test_one_state_per_step(self, monkeypatch):
        """Work, counted: over every labelled graph with n <= 5 at k = 1, 2, 3,
        `minimize` builds one `_State` per step plus one at the fixpoint, and
        takes at most ||G|| steps."""
        built = []

        class CountedState(reducer._State):
            def __init__(self, h, k):
                built.append(k)
                super().__init__(h, k)

        monkeypatch.setattr(reducer, "_State", CountedState)
        for n in range(1, 6):
            for g in enumerate_exhaustive(n):
                for k in (1, 2, 3):
                    h = find_fractional_factor(g, k)
                    if h is None:
                        continue
                    built.clear()
                    _f, trace = minimize(from_assignment(g, k, h), k)
                    assert len(built) == len(trace) + 1, (g, k)
                    assert len(trace) <= g.num_edges, (g, k)

    def test_cycles_fire_in_order_cycle_order(self):
        """Cycles are taken by the vertex lists `_order_cycle` writes, not by
        sorted vertex tuples: the triangle listed (0, 2, 3) fires before the
        5-cycle listed (0, 4, 6, 1, 5), though (0, 1, 4, 5, 6) < (0, 2, 3)."""
        g = Graph(7, [(0, 2), (2, 3), (0, 3), (0, 5), (1, 5), (1, 6), (4, 6), (0, 4)])
        _f, trace = minimize(HalfIntegralAssignment(g, dict.fromkeys(g.edges, 1)), 2)
        assert trace.to_text().splitlines() == [
            "S3 loc=(0,2,3) removed=[0-3] recolored=[2-3:red]",
            "S3 loc=(0,4,6,1,5) removed=[0-5,1-6] recolored=[1-5:red,4-6:red]",
            "S7 loc=(3,2,0,4,6) removed=[0-2] recolored=[0-4:red]",
        ]


def _scan_agrees(g: Graph) -> bool:
    """Check the cycle scan of g's support, every edge at 1 half-unit,
    against `all_cycles`; True if the scan met a clash.  With no clash,
    `cycles` is every simple cycle and the even cycle is the smallest even
    one; with a clash, the even cycle is an even simple cycle of g."""
    state = reducer._State(HalfIntegralAssignment(g, dict.fromkeys(g.edges, 1)), 1)
    cycles = all_cycles(g)
    even = state.find_even_cycle()
    clash = state._cycle_scan[1] is not None
    if clash:
        assert len(even) % 2 == 0 and tuple(even) in cycles, (g, even)
    else:
        assert set(map(tuple, state.cycles)) == cycles and len(state.cycles) == len(cycles), g
        assert even == min((list(c) for c in cycles if len(c) % 2 == 0), default=None), g
    return clash


class TestCycleScan:
    """The fundamental cycles of the breadth-first forest against a brute-force
    list of every simple cycle."""

    def test_exhaustive_small(self):
        """Every labelled graph with n <= 5: both outcomes occur."""
        outcomes = Counter(_scan_agrees(g) for n in range(1, 6) for g in enumerate_exhaustive(n))
        assert outcomes[True] and outcomes[False]

    @pytest.mark.parametrize("n", [7, 8])
    def test_random(self, n):
        """150 gnp graphs each at n = 7 and 8, sparse to dense."""
        for seed in range(150):
            _scan_agrees(random_gnp(n, Fraction(1 + seed % 3, 6), seed))


C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def _c4_matching():
    """C4 with the perfect matching 0-1, 2-3 red; the other edges carry 0."""
    return HalfIntegralAssignment(C4, {(0, 1): 2, (2, 3): 2})


class TestGuards:
    """Each guard in `minimize` fires on a rule that breaks its contract."""

    @staticmethod
    def _only_rule(monkeypatch, units):
        rw = reducer.RuleStep("X", (0,), units)
        monkeypatch.setattr(reducer, "_RULES", (("X", "X", lambda st, rule: rw),))

    def test_start_must_verify(self):
        """`from_assignment` and `minimize` both refuse a start outside the
        window: C4 with one matching edge leaves vertices 2 and 3 at 0."""
        h = HalfIntegralAssignment(C4, {(0, 1): 2})
        with pytest.raises(ValueError, match="^assignment does not verify at this parameter$"):
            from_assignment(C4, 1, h)
        with pytest.raises(reducer.InvalidColoredFactor) as info:
            minimize(h, 1)
        assert str(info.value) == "starting assignment is outside the [1, 3/2] window"

    def test_recolor_outside_support(self, monkeypatch):
        self._only_rule(monkeypatch, {(0, 1): 0, (1, 2): 2})
        with pytest.raises(reducer.InvalidColoredFactor, match=r"touches \(1, 2\), outside the support"):
            minimize(_c4_matching(), 1)

    def test_leaving_window_names_step(self, monkeypatch):
        self._only_rule(monkeypatch, {(0, 1): 0})
        with pytest.raises(reducer.InvalidColoredFactor) as info:
            minimize(_c4_matching(), 1)
        assert str(info.value).startswith("X loc=(0) removed=[0-1] recolored=[] left the")

    def test_value_outside_half_units(self, monkeypatch):
        """A one-shot rule writes 3 half-units on 0-1.  That keeps C3 in the
        k = 2 window (degrees 5, 3 and 2 from 2 everywhere), so only the
        value check refuses it."""
        rw = reducer.RuleStep("X", (0, 1, 2), {(0, 1): 3, (1, 2): 0})
        once = (("X", "X", lambda st, rule: rw if (1, 2) in st.units else None),)
        monkeypatch.setattr(reducer, "_RULES", once)
        c3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(reducer.InvalidColoredFactor) as info:
            minimize(HalfIntegralAssignment(c3, dict.fromkeys(c3.edges, 2)), 2)
        assert str(info.value) == "X loc=(0,1,2) removed=[1-2] recolored=[0-1:3] wrote 3 half-units on 0-1"

    def test_rewrite_must_remove_an_edge(self, monkeypatch):
        self._only_rule(monkeypatch, {(0, 1): 1})
        with pytest.raises(reducer.ReducerError, match="did not remove an edge") as info:
            minimize(_c4_matching(), 1)
        assert type(info.value) is reducer.ReducerError


def _p2_certificate(*entries) -> FactorCertificate:
    """A k = 1 certificate of P2 components, one per (vertices, edges) pair."""
    return FactorCertificate(1, tuple(ComponentEntry(vs, es, P2) for vs, es in entries))


class TestVerifyCertificate:
    """Each rejection in `verify_certificate`, next to a certificate that
    passes and differs from it only there."""

    TWO_P2 = Graph(4, [(0, 1), (2, 3)])

    def test_sound_certificate_passes(self):
        assert verify_certificate(self.TWO_P2, _p2_certificate(((0, 1), ((0, 1),)), ((2, 3), ((2, 3),))))

    def test_repeated_vertex(self):
        """One component listed twice: every vertex is still covered."""
        twice = ((0, 1), ((0, 1),))
        assert not verify_certificate(self.TWO_P2, _p2_certificate(twice, twice, ((2, 3), ((2, 3),))))

    def test_vertex_out_of_range(self):
        """Vertex n listed in place of vertex 1, with an edge from it: a
        refusal, before the edge test reads a neighbour mask n does not have."""
        cert = _p2_certificate(((0, 4), ((4, 0),)), ((2, 3), ((2, 3),)))
        assert not verify_certificate(self.TWO_P2, cert)

    def test_missing_vertex(self):
        cert = FactorCertificate(1, (ComponentEntry((0, 1), ((0, 1),), P2),))
        assert not verify_certificate(self.TWO_P2, cert)

    def test_edge_not_in_graph(self):
        crossed = Graph(4, [(0, 2), (1, 3)])
        assert not verify_certificate(crossed, _p2_certificate(((0, 1), ((0, 1),)), ((2, 3), ((2, 3),))))

    def test_edge_leaves_its_component(self):
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert verify_certificate(p4, _p2_certificate(((0, 1), ((0, 1),)), ((2, 3), ((2, 3),))))
        assert not verify_certificate(p4, _p2_certificate(((0, 1), ((1, 2),)), ((2, 3), ((2, 3),))))

    def test_repeated_edge(self):
        """A P2 that lists its edge twice, in either orientation."""
        for twice in (((0, 1), (0, 1)), ((0, 1), (1, 0))):
            assert not verify_certificate(self.TWO_P2, _p2_certificate(((0, 1), twice), ((2, 3), ((2, 3),))))

    def test_class_tag_fails_to_revalidate(self):
        """P3 is K1,2 at k = 2, so a P2 tag fails; at k = 1 it is no member,
        and even the tag "other" is refused.  A malformed tag (a star with
        j < 1, a tree expansion with no k >= 2) is refused on a component
        whose honest tag passes."""
        p3 = Graph(3, [(0, 1), (1, 2)])
        member = expand_core_tree(Graph(2, [(0, 1)]), 2)

        def cert(k, cls, g=p3):
            return FactorCertificate(k, (ComponentEntry(tuple(range(g.n)), g.edges, cls),))

        assert verify_certificate(p3, cert(2, star(2)))
        assert not verify_certificate(p3, cert(2, P2))
        assert not verify_certificate(p3, cert(1, star(2)))
        assert not verify_certificate(p3, cert(1, OTHER))
        for j in (0, None):
            assert not verify_certificate(p3, cert(2, ComponentClass("star", j)))
        assert verify_certificate(member, cert(2, tree_expansion(2), member))
        for k in (1, None):
            assert not verify_certificate(member, cert(2, ComponentClass("tree_expansion", k), member))

    def test_chair_is_no_p5(self):
        """The chair, K1,3 with one edge subdivided, has P5's order but a
        vertex of degree 3; P5 itself passes."""
        edges = {"P5": ((0, 1), (1, 2), (2, 3), (3, 4)), "chair": ((0, 1), (0, 2), (0, 3), (3, 4))}
        for name, es in edges.items():
            cert = FactorCertificate(1, (ComponentEntry((0, 1, 2, 3, 4), es, P5),))
            assert verify_certificate(Graph(5, es), cert) == (name == "P5")


@cache
def _gnp_3000() -> Graph:
    return random_gnp(3000, Fraction(12, 3000), 1)


def _certified_with_count(g: Graph, k: int) -> FactorCertificate:
    """The certificate of g at k, after checking that it re-verifies, that
    its trace is at most ||G|| steps, that `minimize` built one `_State` per
    step plus one at the fixpoint, and that the factor engine ran at most two
    max flows for it."""
    built = []

    class CountedState(reducer._State):
        def __init__(self, h, k):
            built.append(None)
            super().__init__(h, k)

    with pytest.MonkeyPatch.context() as mp:
        calls = counted_flows(mp)
        mp.setattr(reducer, "_State", CountedState)
        cert, _h, trace = extract_component_factor_detailed(g, k)
    assert cert is not None and verify_certificate(g, cert)
    assert len(trace) <= g.num_edges
    assert len(built) == len(trace) + 1
    assert len(calls) <= 2
    return cert


class TestScale:
    """Graphs with thousands of vertices are normal input: each is certified
    with work counted, not timed.  The T(2k+1) members also check the
    certificate end to end, since a wrong rewrite would split the tree."""

    @pytest.mark.parametrize("k, n", [(1, 1665), (2, 2135), (3, 2727)])
    def test_expansion_member(self, k, n):
        # each n is |R|(2k+3)/2 for an even |R|: 666, 610 and 606
        t = random_tree_expansion(k, n, 1)
        assert t.n == n
        cert = _certified_with_count(t, k)
        assert [e.cls for e in cert.components] == [classify_component(t, k)]
        assert cert.components[0].cls.kind == ("cubic_expansion" if k == 1 else "tree_expansion")

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=9, max_value=200),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_drawn_expansion_member(self, k, size, seed):
        """Hypothesis members: the factor side only.  The condition side
        stays with the small members in test_families."""
        t = random_tree_expansion(k, size, seed)
        cert = _certified_with_count(t, k)
        assert [e.cls for e in cert.components] == [classify_component(t, k)]

    @pytest.mark.parametrize("k", [1, 2])
    def test_gnp_3000(self, k):
        _certified_with_count(_gnp_3000(), k)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_degrees_2_to_4(self, seed, monkeypatch):
        """Connected 5000-vertex graphs with every degree in [2, 4] at k = 2.
        The least flow leaves `minimize` a few steps; one made least by a
        max flow from t back to s left it 456 and 383 steps."""
        g = random_degrees_2_to_4(5000, seed)
        calls = counted_flows(monkeypatch)
        cert, _h, trace = extract_component_factor_detailed(g, 2)
        assert len(calls) == 2
        assert len(trace) <= 10
        assert cert is not None and verify_certificate(g, cert)

    @pytest.mark.parametrize("closed", [False, True], ids=["P5000", "C5000"])
    def test_long_path_and_cycle(self, closed):
        n = 5000
        g = Graph(n, [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if closed else []))
        cert = _certified_with_count(g, 1)
        assert {e.cls for e in cert.components} == {P2}
