"""Isolated-vertex removal conditions and isolated toughness.

check_iso_condition decides whether iso(G-S) <= c*|S| for every S, where
iso counts vertices outside S whose whole neighbourhood lies inside S.
A violating S must satisfy c*|S| < iso(G-S) <= n - |S|, so only sizes s
with s*(p+q) < n*q can violate, for c = p/q.

Sizes 0 and 1 are read off the neighbour masks, and most violations are
found there.  iso(G) counts the vertices whose mask is 0, so S = {} violates
iff one exists, and it isolates exactly those.  Without isolated vertices,
a vertex outside {v} is isolated in G-v iff its only neighbour is v, so
iso(G-v) is the number of v's neighbours of degree 1; {v} violates iff that
whole number exceeds p/q, that is p // q, and it isolates exactly those
leaves.  `graphs.leaf_centre` takes v in ascending order, so the first such
{v} is the lexicographically smallest violator of size 1, and both answers
are the ones the walk below would give.  When size 1 lies outside the range
above, iso(G-v) <= n - 1 <= c, and no {v} violates either.

Every vertex x of a minimum violator S has more than c neighbours among the
vertices I = iso(G-S) it isolates.  Taking x out of S frees at most the
|N(x) & I| vertices of I next to x, the rest of I stays isolated, and S - x
does not violate, as S has minimum size.  So with c = p/q,
q(|I| - |N(x) & I|) <= p(|S| - 1) < q|I| - p, whence |N(x) & I| > c.  A
vertex with at most c neighbours is never in the answer.

From size 2 on, for each s in range in turn, an explicit-stack depth-first
walk of the combination tree visits the s-sets:
a node holds S as an increasing stack, its children append one vertex
greater than the top, and a branch stops once fewer vertices remain than
it still needs.  Children are taken in increasing order, so the leaves come
out in lexicographic order, the order of itertools.combinations; the first
violating leaf is therefore the lexicographically smallest violating S of
minimum size.

The walk keeps S and I = iso(G-S) as masks.  Putting v into S takes v out
of I and adds each neighbour w outside S with adj[w] & ~S == 0.  Only a
neighbour of degree at most s can be one: w outside S is isolated iff
N(w) lies inside S, so deg(w) <= |S| <= s.  So for each size the walk lists
once, per vertex, its neighbours of degree <= s, and tests only those.
Each stack entry saves both masks as they were before its vertex entered,
so leaving is one pop and the witness is read off the masks.  All
comparisons are integer cross-multiplications, exact like rationals.

isolated_toughness walks independent sets instead: I = iso(G-S) is
independent with N(I) inside S, and removing N(I) isolates all of I, so
min |S|/iso(G-S) over iso(G-S) >= 2 is min |N(I)|/|I| over |I| >= 2.

`ConditionWitness` is a NamedTuple, so it compares equal to the plain tuple
(removed, isolated) of the same fields.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from factorsmith.graphs import Graph, leaf_centre, mask_to_list

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


class ConditionWitness(NamedTuple):
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
    otherwise the lexicographically smallest violating S of minimum size.

    S = {} and S = {v} are decided from `g.adj` and the leaf mask (see the
    module docstring for why that answer is exact and comes first).  Only
    then does `_walk_removal_sets` try the larger sets.  Every vertex of
    the answer has more than c neighbours in its `isolated` set (module
    docstring)."""
    if not isinstance(c, Fraction):
        c = Fraction(c)
    p, q = c.numerator, c.denominator
    if p <= 0:
        raise ValueError(f"condition ratio must be positive, got {c}")
    adj = g.adj
    if not all(adj):
        return ConditionWitness(frozenset(), frozenset(v for v, m in enumerate(adj) if not m))
    leaves, v = leaf_centre(adj, p // q)
    if v is not None:
        return ConditionWitness(frozenset((v,)), frozenset(mask_to_list(adj[v] & leaves)))
    return _walk_removal_sets(adj, p, q)


def _walk_removal_sets(adj: tuple[int, ...], p: int, q: int) -> ConditionWitness | None:
    """The first S by size from 2 up, then lexicographically, with
    iso(G-S)*q > p*|S|, in a graph without isolated vertices.  A stack
    entry (v, S, I) holds the masks of S and I = iso(G-S) from before v
    entered; `low[v]` lists v's neighbours of degree <= size, the only
    ones an s-set can isolate (module docstring)."""
    n = len(adj)
    deg = [m.bit_count() for m in adj]
    # the largest s with s*(1+c) < n, i.e. s*(p+q) < n*q
    for size in range(2, (n * q - 1) // (p + q) + 1):
        small = sum(1 << w for w in range(n) if deg[w] <= size)
        low = [mask_to_list(m & small) for m in adj]
        stack: list[tuple[int, int, int]] = []
        s = iso = 0  # no mask is 0, so G itself isolates nothing
        v = 0
        while True:
            depth = len(stack)
            if depth == size:
                if iso.bit_count() * q > p * size:
                    return ConditionWitness(frozenset(mask_to_list(s)), frozenset(mask_to_list(iso)))
            elif n - v >= size - depth:
                stack.append((v, s, iso))
                s |= 1 << v
                rest = ~s
                iso &= rest
                for w in low[v]:
                    if adj[w] & rest == 0 and rest >> w & 1:
                        iso |= 1 << w
                v += 1
                continue
            if not stack:
                break
            v, s, iso = stack.pop()
            v += 1
    return None


def isolated_toughness(g: Graph) -> Fraction | None:
    """min |S|/iso(G-S) over S with iso(G-S) >= 2, as min |N(I)|/|I| over
    independent I with |I| >= 2 (module docstring); None means infinite,
    as for complete graphs.  A star has 2^(n-1) independent sets, so n is
    capped at TOUGHNESS_MAX_N.  Each stack entry (candidates, N(I) as a
    mask, |I|) has one child per candidate v outside N(I), whose candidates
    lie above v.  Ratios are cross-multiplied, and 0 ends the walk."""
    n = g.n
    if n > TOUGHNESS_MAX_N:
        raise ValueError(f"isolated toughness supports n <= {TOUGHNESS_MAX_N}, got n = {n}")
    adj = g.adj
    best_size, best_iso = 1, 0  # 1/0: no I with |I| >= 2 yet
    stack = [((1 << n) - 1, 0, 0)]
    while stack:
        cand, nmask, size = stack.pop()
        if size >= 2 and nmask.bit_count() * best_iso < size * best_size:
            best_size, best_iso = nmask.bit_count(), size
            if best_size == 0:
                break
        cand &= ~nmask
        while cand:
            low = cand & -cand
            cand ^= low
            stack.append((cand, nmask | adj[low.bit_length() - 1], size + 1))
    return Fraction(best_size, best_iso) if best_iso else None
