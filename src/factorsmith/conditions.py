"""Isolated-vertex removal conditions and isolated toughness.

check_iso_condition decides whether iso(G-S) <= c*|S| for every S, where
iso counts vertices outside S whose whole neighbourhood lies inside S.
A violating S must satisfy c*|S| < iso(G-S) <= n - |S|, so only subsets
with |S| < n/(1+c) can violate; the search enumerates exactly those, in
increasing size then lexicographic order, which also fixes the tie-break
(smallest violating S of minimum size).  Comparisons are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from factorsmith.graphs import Graph, _mask_to_list

TOUGHNESS_MAX_N = 20


def parse_ratio(text: str) -> Fraction:
    """Strict 'p/q' integer form; no floats at the boundary."""
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise ValueError(f"ratio must be written as p/q, got {text!r}")
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"ratio must have integer parts, got {text!r}") from None
    if den <= 0:
        raise ValueError(f"ratio denominator must be positive, got {text!r}")
    return Fraction(num, den)


@dataclass(frozen=True)
class ConditionWitness:
    """A set S with iso(G-S) > c*|S|, plus the isolated vertices it leaves."""

    removed: frozenset[int]
    isolated: frozenset[int]


def iso_after_removal(g: Graph, removed) -> frozenset[int]:
    """Vertices outside `removed` whose entire neighbourhood lies inside it."""
    smask = 0
    for v in removed:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
        smask |= 1 << v
    return frozenset(v for v in range(g.n) if not smask >> v & 1 and g.adj[v] & ~smask == 0)


def check_iso_condition(g: Graph, c: Fraction) -> ConditionWitness | None:
    """None iff iso(G-S) <= c*|S| for all S (including S = empty set);
    otherwise the lexicographically smallest violating S of minimum size."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError(f"condition ratio must be positive, got {c}")
    n = g.n
    if n == 0:
        return None
    adj = g.adj
    num, den = c.numerator, c.denominator
    # |S|*(1+c) < n is necessary for a violation
    max_size = 0
    while Fraction(max_size + 1) * (1 + c) < n:
        max_size += 1
    for size in range(max_size + 1):
        for subset in combinations(range(n), size):
            smask = 0
            for v in subset:
                smask |= 1 << v
            iso_mask = 0
            for v in range(n):
                if not smask >> v & 1 and adj[v] & ~smask == 0:
                    iso_mask |= 1 << v
            if iso_mask.bit_count() * den > num * size:
                return ConditionWitness(frozenset(subset), frozenset(_mask_to_list(iso_mask)))
    return None


def isolated_toughness(g: Graph) -> Fraction | None:
    """min |S| / iso(G-S) over all S with iso(G-S) >= 2; None means infinite
    (no removal set isolates two vertices, e.g. complete graphs).  Tries all
    2^n sets, so n is capped at TOUGHNESS_MAX_N."""
    n = g.n
    if n > TOUGHNESS_MAX_N:
        raise ValueError(f"isolated toughness supports n <= {TOUGHNESS_MAX_N}, got n = {n}")
    adj = g.adj
    best: Fraction | None = None
    for smask in range(1 << n):
        iso = 0
        for v in range(n):
            if not smask >> v & 1 and adj[v] & ~smask == 0:
                iso += 1
        if iso >= 2:
            value = Fraction(smask.bit_count(), iso)
            if best is None or value < best:
                best = value
    return best
