"""Rewrite engine: pinned traces and rule counts, and the theorem's equivalence.

The corpus is every labelled graph with n <= 5 and every free tree with
n <= 11, each at k = 1, 2, 3, plus two gnp(16, 1/4) graphs at k = 1 that make
the rare rules R2 and R5 fire.  The digest and the fire counts pin the exact
rewrite sequence, so a change to rule order, candidate choice or trace text
shows up here.
"""

import hashlib
import sys
from collections import Counter
from fractions import Fraction
from functools import cache

from factorsmith.conditions import check_iso_condition
from factorsmith.corpus import enumerate_exhaustive, free_trees_upto, random_gnp
from factorsmith.graphs import Graph, encode_graph6
from factorsmith.reducer import (
    ColoredFactor,
    extract_component_factor,
    extract_component_factor_detailed,
    minimize,
    verify_certificate,
)

CORPUS_CHECKS = 4607
CORPUS_DIGEST = "b05c9d9f6aba63e92a40b52a24c1e1c5426ce8f8379cefc86caa94d55e915ec1"
RULE_COUNTS = {
    "R1": 32, "R2": 1, "R3": 168, "R4": 112, "R5": 2, "R6": 17, "R7": 74, "R8": 21,
    "S1": 961, "S2": 495, "S3": 352, "S4": 143, "S5": 61, "S6": 91, "S7": 2328,
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
        """n <= 5, k in {1, 2}: condition at (2k+1)/2 holds iff a certificate
        comes back, and every certificate and trace is sound."""
        for n in range(1, 6):
            for g in enumerate_exhaustive(n):
                for k in (1, 2):
                    holds = check_iso_condition(g, Fraction(2 * k + 1, 2)) is None
                    cert, _h, trace = extract_component_factor_detailed(g, k)
                    assert holds == (cert is not None), (encode_graph6(g), k)
                    if cert is None:
                        continue
                    assert verify_certificate(g, cert)
                    assert len(trace) <= g.num_edges
                    assert not {s.rule for s in trace.steps} & {"S8", "S9"}

    def test_extract_matches_detailed(self):
        g = random_gnp(16, Fraction(1, 4), 6)
        assert extract_component_factor(g, 1) == extract_component_factor_detailed(g, 1)[0]


class TestMinimize:
    def test_long_cycle_leaves_recursion_limit(self):
        """The block scan is iterative: a 5000-cycle needs no deeper stack."""
        n = 5000
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        limit = sys.getrecursionlimit()
        f, trace = minimize(ColoredFactor(g, 1, set(), set(g.edges)))
        assert sys.getrecursionlimit() == limit
        assert [s.rule for s in trace.steps] == ["R1"]
        assert len(f.red) == n // 2 and not f.blue
