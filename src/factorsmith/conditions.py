"""Isolated-vertex removal conditions and isolated toughness.

check_iso_condition decides whether iso(G-S) <= c*|S| for every S, where
iso counts vertices outside S whose whole neighbourhood lies inside S.
A violating S must satisfy c*|S| < iso(G-S) <= n - |S|, so only sizes s
with s*(p+q) < n*q can violate, for c = p/q.  For each such s in turn, an
explicit-stack depth-first walk of the combination tree visits the s-sets:
a node holds S as an increasing stack, its children append one vertex
greater than the top, and a branch stops once fewer vertices remain than
it still needs.  Children are taken in increasing order, so the leaves come
out in lexicographic order, the order of itertools.combinations; the first
violating leaf is therefore the lexicographically smallest violating S of
minimum size.

The walk keeps need[v], the number of v's neighbours not in S, and the
number of vertices outside S with need 0.  Putting a vertex into S or
taking it out touches only its neighbours, so a step costs O(deg) instead
of a rescan of all n vertices.  isolated_toughness walks every subset once
in pre-order with the same counters.  All comparisons are integer
cross-multiplications, exact like rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from factorsmith.graphs import Graph

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


def _counters(g: Graph) -> tuple[list[list[int]], list[int], list[bool], int]:
    """Neighbour lists, need[v] = deg(v) and in_s for S = empty set, and
    iso(G), the starting state of a walk."""
    nbrs = [g.neighbors(v) for v in range(g.n)]
    need = [len(ns) for ns in nbrs]
    return nbrs, need, [False] * g.n, need.count(0)


def check_iso_condition(g: Graph, c: Fraction) -> ConditionWitness | None:
    """None iff iso(G-S) <= c*|S| for all S (including S = empty set);
    otherwise the lexicographically smallest violating S of minimum size.

    One walk per size s = 0..max_size over the s-subsets in lexicographic
    order (see the module docstring).  Entering v into S drops iso by one if
    v was isolated, decrements need[w] for each neighbour w and counts w as
    isolated when its need reaches 0 outside S; leaving undoes exactly that.
    A leaf at depth s violates iff iso*q > p*s for c = p/q."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError(f"condition ratio must be positive, got {c}")
    n = g.n
    if n == 0:
        return None
    p, q = c.numerator, c.denominator
    nbrs, need, in_s, iso = _counters(g)
    # the largest s with s*(1+c) < n, i.e. s*(p+q) < n*q
    for size in range((n * q - 1) // (p + q) + 1):
        stack: list[int] = []
        v = 0
        while True:
            depth = len(stack)
            if depth == size:
                if iso * q > p * size:
                    return ConditionWitness(frozenset(stack), iso_after_removal(g, stack))
            elif n - v >= size - depth:
                if need[v] == 0:
                    iso -= 1
                in_s[v] = True
                for w in nbrs[v]:
                    need[w] -= 1
                    if need[w] == 0 and not in_s[w]:
                        iso += 1
                stack.append(v)
                v += 1
                continue
            if not stack:
                break
            u = stack.pop()
            for w in nbrs[u]:
                if need[w] == 0 and not in_s[w]:
                    iso -= 1
                need[w] += 1
            in_s[u] = False
            if need[u] == 0:
                iso += 1
            v = u + 1
    return None


def isolated_toughness(g: Graph) -> Fraction | None:
    """min |S| / iso(G-S) over all S with iso(G-S) >= 2; None means infinite
    (no removal set isolates two vertices, e.g. complete graphs).  Visits
    all 2^n sets, so n is capped at TOUGHNESS_MAX_N.

    One pre-order walk of the subset tree (children append a vertex greater
    than the top of the stack) with the counters of check_iso_condition;
    |S|/iso is compared by cross-multiplying against the best pair so far."""
    n = g.n
    if n > TOUGHNESS_MAX_N:
        raise ValueError(f"isolated toughness supports n <= {TOUGHNESS_MAX_N}, got n = {n}")
    nbrs, need, in_s, iso = _counters(g)
    best_size, best_iso = 0, 0  # best_iso == 0: no S with iso >= 2 yet
    stack: list[int] = []
    v = 0
    while True:
        if iso >= 2 and (best_iso == 0 or len(stack) * best_iso < iso * best_size):
            best_size, best_iso = len(stack), iso
        while v == n:
            if not stack:
                return Fraction(best_size, best_iso) if best_iso else None
            u = stack.pop()
            for w in nbrs[u]:
                if need[w] == 0 and not in_s[w]:
                    iso -= 1
                need[w] += 1
            in_s[u] = False
            if need[u] == 0:
                iso += 1
            v = u + 1
        if need[v] == 0:
            iso -= 1
        in_s[v] = True
        for w in nbrs[v]:
            need[w] -= 1
            if need[w] == 0 and not in_s[w]:
                iso += 1
        stack.append(v)
        v += 1
