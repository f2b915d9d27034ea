"""Graph corpora for theorem-scale verification runs.

Streams are deterministic: the random generators run on SplitMix64, a fixed,
documented 64-bit mixer, so a (generator, seed) pair reproduces the same
graphs on any machine.  The i-th SplitMix64 draw is mix(seed + i * gamma),
so `SplitMix64.below` computes a chunk of draws at once, each in its own
128-bit lane of one Python int.  `random_gnp` draws all of a graph's pairs
that way, and its graphs are the ones that one `next_u64` call per pair
gives.  Exhaustive enumeration is labeled (no isomorphism reduction); the
free-tree enumerator is the one exception, since the tests of the family
recognizer need every tree shape exactly once; it joins cached per-shape
mask templates.  `random_tree_expansion` draws members of T(2k+1) at every
k >= 1: a random core tree R, expanded by `families.expand_core_tree`.  Every
generator writes its neighbour masks itself, for `Graph._from_masks`.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, combinations_with_replacement, compress
from operator import xor
from typing import Iterator

from factorsmith.families import OTHER, classify_component, expand_core_tree
from factorsmith.graphs import Graph

EXHAUSTIVE_MAX_N = 7
FREE_TREES_MAX_N = 20  # 1,346,024 trees; they grow about 2.6 times a vertex

_MIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _lane_steps(lanes: int) -> tuple[int, int]:
    """1 and (i + 1) * gamma in each 128-bit lane i < lanes, for lanes a power
    of two.  Built by doubling: lane m + i of the ramp is lane i plus m."""
    ones = ramp = m = 1
    while m < lanes:
        ramp |= (ramp + m * ones) << 128 * m
        ones |= ones << 128 * m
        m *= 2
    return ones, _MIX_GAMMA * ramp


# SplitMix64.below holds a chunk of up to _CHUNK draws in one int, draw i in
# its 128-bit lane, bits 128i..128i+127.  _ONES has 1 in every lane, _LANE the
# low 64 bits of every lane, _STEPS holds (i + 1) * gamma in lane i, and
# _STRIDE moves every lane on by one chunk of draws.
_CHUNK = 512
_ONES, _STEPS = _lane_steps(_CHUNK)
_LANE = _MASK64 * _ONES
_STRIDE = (_CHUNK * _MIX_GAMMA & _MASK64) * _ONES


class SplitMix64:
    """SplitMix64: x += gamma; z = mix(x).  Stable across platforms."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _MIX_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, count: int, limit: int) -> list[int]:
        """The offsets i < count, ascending, at which the next `count` draws
        of `next_u64` are below `limit`, for 0 <= limit <= 2^64.  The state
        moves on by `count` draws, as `count` calls of `next_u64` move it.

        Draw i is mix(state + (i + 1) * gamma), so a chunk of draws is
        computed together, one per 128-bit lane of an int.  Each step of the
        mixer is one big-int operation, masked back to the low 64 bits of
        every lane: a 64-bit value times a 64-bit multiplier fits its lane,
        so no carry crosses into the next one.  Each lane of
        (2^64 + limit - 1) * ONES - z then lies in [0, 2^65), and its bit 64,
        the low bit of the lane's ninth byte, is set exactly when z < limit.
        """
        if count < 0 or not 0 <= limit <= 1 << 64:
            raise ValueError(f"need count >= 0 and 0 <= limit <= 2^64, got {count}, {limit}")
        kept: list[int] = []
        lanes = min(count, _CHUNK)
        cut = (1 << 128 * lanes) - 1
        ones, stride = _ONES & cut, _STRIDE & cut
        x = (self._state * ones + (_STEPS & cut)) & _LANE  # lane i: state + (i + 1) * gamma
        top = (limit + _MASK64) * ones
        for base in range(0, count, _CHUNK):
            if count - base < lanes:  # a short last chunk
                lanes = count - base
                cut = (1 << 128 * lanes) - 1
                x, top = x & cut, top & cut
            z = (((x ^ (x >> 30)) & _LANE) * 0xBF58476D1CE4E5B9) & _LANE
            z = (((z ^ (z >> 27)) & _LANE) * 0x94D049BB133111EB) & _LANE
            z = (z ^ (z >> 31)) & _LANE
            flags = (top - z).to_bytes(16 * lanes, "little")[8::16]
            kept.extend(compress(range(base, base + lanes), flags))
            x = (x + stride) & _LANE
        self._state = (self._state + count * _MIX_GAMMA) & _MASK64
        return kept

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound


def enumerate_exhaustive(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled graphs on n vertices, each exactly once.
    Graph `mask` has pair i of `combinations(range(n), 2)` if bit i is set,
    so its masks are graph mask-1's xor the pairs 0..(mask's lowest set bit)."""
    if not 1 <= n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration supports 1 <= n <= {EXHAUSTIVE_MAX_N}")
    steps, step = [], [0] * n  # steps[j]: the masks of pairs 0..j
    for u, v in combinations(range(n), 2):
        step[u] |= 1 << v
        step[v] |= 1 << u
        steps.append(tuple(step))
    adj = (0,) * n
    yield Graph._from_masks(n, adj)
    for mask in range(1, 1 << len(steps)):
        adj = tuple(map(xor, adj, steps[(mask & -mask).bit_length() - 1]))
        yield Graph._from_masks(n, adj)


# The parameter guards of the seeded generators, so that a caller can reject
# a spec before it draws any graph.


def check_gnp(n: int, p: Fraction) -> Fraction:
    """p as a Fraction, if (n, p) is a valid `random_gnp` spec."""
    if not isinstance(p, Fraction):
        p = Fraction(p)
    if not 0 <= p.numerator <= p.denominator:
        raise ValueError(f"edge probability must be in [0,1], got {p}")
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    return p


def check_tree(n: int) -> None:
    if n < 1:
        raise ValueError("tree needs at least one vertex")


def check_tree_expansion(k: int, size: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if size < 2 * k + 3:
        raise ValueError(f"the smallest member of T({2 * k + 1}) has {2 * k + 3} vertices, got size {size}")


def random_gnp(n: int, p: Fraction, seed: int) -> Graph:
    """G(n, p) with p exact: a pair is kept when its 64-bit draw x is below
    the one integer limit ceil(p * 2^64), which is x < p * 2^64.

    The pairs take the draws of SplitMix64(seed) in `combinations` order.
    `SplitMix64.below` computes them a chunk at a time, each in its own
    128-bit lane of one int, and returns the flat indices of the kept pairs.
    Draw i is mix(seed + (i + 1) * gamma) however it is computed, so the
    graphs are the ones that one `next_u64` call per pair gives.  The
    indices map to (u, v) along a running row end, straight into the
    neighbour masks: no list of all pairs is built.
    """
    p = check_gnp(n, p)
    limit = -((-p.numerator << 64) // p.denominator)
    adj = [0] * n
    u, base, end = 0, -1, n - 1  # row u's pairs end at flat index `end`; v = t - base
    for t in SplitMix64(seed).below(n * (n - 1) // 2, limit):
        while t >= end:
            u += 1
            base = end - u - 1
            end += n - 1 - u
        v = t - base
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph._from_masks(n, adj)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree: Pruefer sequences are in bijection with the
    n^(n-2) labeled trees, and each entry is drawn uniformly by rejection."""
    check_tree(n)
    adj = [0] * n
    if n == 1:
        return Graph._from_masks(1, adj)
    rng = SplitMix64(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaf_heap = sorted(v for v in range(n) if degree[v] == 1)  # a sorted list is a heap
    for x in seq:
        leaf = heapq.heappop(leaf_heap)
        adj[leaf] |= 1 << x
        adj[x] |= 1 << leaf
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaf_heap, x)
    u, v = leaf_heap  # the last edge joins the two leaves left
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph._from_masks(n, adj)


def random_tree_expansion(k: int, size: int, seed: int) -> Graph:
    """A random member of T(2k+1), k >= 1, with at most `size` vertices.

    The core tree R grows from one edge: each step draws a vertex of degree
    < 2k+1 and gives it two new leaves, so every degree stays odd.  R grows
    to the largest even |R| with |R|(2k+3)/2 <= size, and the member is
    `expand_core_tree(R, k)`.  At k = 1 a core of two vertices gives P5.
    """
    check_tree_expansion(k, size)
    rng = SplitMix64(seed)
    adj = [2, 1]  # R's neighbour masks, from the edge 0-1
    growing = [0, 1]  # the vertices of degree < 2k+1
    for _ in range(size // (2 * k + 3) - 1):
        i = rng.randrange(len(growing))
        v, a = growing[i], len(adj)
        adj[v] |= 3 << a
        adj += [1 << v, 1 << v]
        growing += [a, a + 1]
        if adj[v].bit_count() == 2 * k + 1:
            growing[i] = growing.pop()
    t = expand_core_tree(Graph._from_masks(len(adj), adj), k)
    if classify_component(t, k) == OTHER:
        raise AssertionError(f"expanded core tree is not a member of T({2 * k + 1})")
    return t


def paths_and_cycles(max_n: int) -> Iterator[Graph]:
    """P2..P_max_n then C3..C_max_n."""
    if max_n < 2:
        raise ValueError("need max_n >= 2")
    for n in range(2, max_n + 1):  # v's neighbours v - 1 and v + 1, where they exist
        yield Graph._from_masks(n, [(1 << v >> 1 | 1 << v + 1) & (1 << n) - 1 for v in range(n)])
    for n in range(3, max_n + 1):
        yield Graph._from_masks(n, [1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)])


# --- non-isomorphic free trees ----------------------------------------------
#
# A free tree is counted once: rooted at its unique centroid, or as an
# unordered pair of half-shapes joined at a bicentroid edge.  A rooted shape
# is kept as its template: the neighbour masks of its tree, with the root at
# 0 and the other vertices in preorder.
#
# A forest is a non-increasing run of positions in a universe of rooted shapes
# ordered descending by size, listed in lexicographic order of those runs.  A
# rooted shape on n vertices is a forest of n-1 vertices under a root 0, each
# child's template shifted to the child's offset.  `_forests` writes those
# masks as it walks, so siblings share the masks of their common prefix; it
# starts each step at the first shape that fits what is left, and it streams
# its trees, so only the universe's templates are kept.  Rooted at its
# centroid, a tree on n vertices is such a forest whose shapes have at most
# (n-1)//2 vertices each, so free_trees takes the forests of a universe cut at
# that size: nothing larger is built and nothing is filtered out.  The cut
# drops only the universe's leading (largest) entries and shifts every other
# position by the same amount, so the trees come out in the order, and with
# the labels, of all rooted shapes on n vertices filtered for a centroid
# root.  A bicentroid tree is the forest of one half's children and the other
# half under root 0.


def _forests(total: int, cap: int) -> Iterator[tuple[int, ...]]:
    """The masks of every tree whose root 0 has as children a forest of
    `total` vertices with shapes of <= `cap` vertices, in preorder."""
    universe: list[tuple[int, ...]] = []
    fits = [0] * (cap + 1)  # fits[s]: the first shape with <= s vertices
    for s in range(cap, 0, -1):
        fits[s] = len(universe)
        universe += _rooted_shapes(s)
    adj = [0] * (total + 1)

    def rec(start: int, remaining: int, root: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            adj[0] = root
            yield tuple(adj)
            return
        at = total + 1 - remaining  # the next child's root
        for i in range(max(start, fits[min(remaining, cap)]), len(universe)):
            t = universe[i]
            adj[at] = t[0] << at | 1
            adj[at + 1 : at + len(t)] = [m << at for m in t[1:]]
            yield from rec(i, remaining - len(t), root | 1 << at)

    return rec(0, total, 0)


@cache
def _rooted_shapes(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_forests(n - 1, n - 1))


def free_trees(n: int) -> Iterator[Graph]:
    """All free (unlabeled) trees on n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > FREE_TREES_MAX_N:
        raise ValueError(f"free-tree enumeration supports n <= {FREE_TREES_MAX_N}, got {n}")
    for adj in _forests(n - 1, (n - 1) // 2):
        yield Graph._from_masks(n, adj)
    if n % 2 == 0:
        h = n // 2
        halves = _rooted_shapes(h)
        for a, b in combinations_with_replacement(range(len(halves)), 2):
            ta, tb = halves[a], halves[b]
            yield Graph._from_masks(n, [ta[0] | 1 << h, *ta[1:], tb[0] << h | 1, *(m << h for m in tb[1:])])


def free_trees_upto(max_n: int) -> Iterator[Graph]:
    """The free trees on 1..max_n vertices; max_n is checked on the call,
    before any tree is built."""
    if not 0 <= max_n <= FREE_TREES_MAX_N:
        raise ValueError(f"need 0 <= max_n <= {FREE_TREES_MAX_N}, got {max_n}")
    return chain.from_iterable(map(free_trees, range(1, max_n + 1)))
