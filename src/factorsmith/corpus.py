"""Graph corpora for theorem-scale verification runs.

Streams are deterministic: the random generators run on SplitMix64, a fixed,
documented 64-bit mixer, so a (generator, seed) pair reproduces the same
graphs on any machine.  Exhaustive enumeration is labeled (no isomorphism
reduction); the free-tree enumerator is the one exception, since the tests
of the family recognizer need every tree shape exactly once.
`random_expansion_base` draws bases for the one construction of T(2k+1) at
every k >= 1.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement
from typing import Iterator

from factorsmith.families import is_expansion_base
from factorsmith.graphs import Graph

EXHAUSTIVE_MAX_N = 7

_MIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


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
    """All 2^(n(n-1)/2) labeled graphs on n vertices, each exactly once."""
    if not 1 <= n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration supports 1 <= n <= {EXHAUSTIVE_MAX_N}")
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))


def random_gnp(n: int, p: Fraction, seed: int) -> Graph:
    """G(n, p) with p exact: a pair is kept when its 64-bit draw x is below
    the one integer limit ceil(p * 2^64), which is x < p * 2^64."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must be in [0,1], got {p}")
    rng = SplitMix64(seed)
    limit = -((-p.numerator << 64) // p.denominator)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.next_u64() < limit]
    return Graph(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform-ish labeled tree via a random Pruefer sequence."""
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    if n == 1:
        return Graph(1)
    rng = SplitMix64(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaf_heap = sorted(v for v in range(n) if degree[v] == 1)  # a sorted list is a heap
    for x in seq:
        leaf = heapq.heappop(leaf_heap)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaf_heap, x)
    u = heapq.heappop(leaf_heap)
    v = heapq.heappop(leaf_heap)
    edges.append((u, v))
    return Graph(n, edges)


def random_expansion_base(k: int, size: int, seed: int) -> Graph:
    """Random tree valid as an expansion base for parameter k >= 1: the
    non-leaf core keeps odd degrees <= 2k+1 and every core vertex v obeys
    2*(attached leaves) + core-degree(v) <= 2k+1.  At k = 1 it is a random
    cubic tree with one pendant edge on each leaf.

    The base has between size - 2 and size vertices; size >= 4 is required.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if size < 4:
        raise ValueError("smallest valid base has 4 vertices (2 core + 2 leaves)")
    g = _grow_expansion_base(k, size, SplitMix64(seed))
    if not is_expansion_base(g, k):
        raise AssertionError("grown tree is not an expansion base")
    return g


def _grow_expansion_base(k: int, size: int, rng: SplitMix64) -> Graph:
    # Core grown by leaf pairs keeps all core degrees odd.  Every core leaf
    # is owed one pendant leaf, so the least total is the core plus its
    # leaves: a step at a core leaf adds 3 to it, elsewhere 4.  The core
    # grows until no step fits in `size`, which leaves at most 2 to spare.
    edges = [(0, 1)]
    core_deg = [1, 1]
    leaves = 2
    while True:
        room = size - len(core_deg) - leaves
        candidates = [
            v for v, d in enumerate(core_deg) if d + 2 <= 2 * k + 1 and room >= (3 if d == 1 else 4)
        ]
        if not candidates:
            break
        v = candidates[rng.randrange(len(candidates))]
        leaves += 1 if core_deg[v] == 1 else 2
        core_deg[v] += 2
        for _ in range(2):
            edges.append((v, len(core_deg)))
            core_deg.append(1)
    total = len(core_deg)
    spare = size - total - leaves
    for v, d in enumerate(core_deg):
        # a core leaf needs one pendant leaf; v has room for (2k+1-d)//2
        need = 1 if d == 1 else 0
        extra = min((2 * k + 1 - d) // 2 - need, spare)
        count = need + (rng.randrange(extra + 1) if extra > 0 else 0)
        spare -= count - need
        for _ in range(count):
            edges.append((v, total))
            total += 1
    return Graph(total, edges)


def paths_and_cycles(max_n: int) -> Iterator[Graph]:
    """P2..P_max_n then C3..C_max_n."""
    if max_n < 2:
        raise ValueError("need max_n >= 2")
    for n in range(2, max_n + 1):
        yield Graph(n, [(i, i + 1) for i in range(n - 1)])
    for n in range(3, max_n + 1):
        yield Graph(n, [(i, (i + 1) % n) for i in range(n)])


# --- non-isomorphic free trees ----------------------------------------------
#
# Rooted shapes are canonical nested tuples (children sorted descending by
# (size, shape)).  A free tree is counted once: rooted at its unique centroid,
# or as an unordered pair of half-shapes joined at a bicentroid edge.
#
# A forest is a non-increasing run of positions in a universe of rooted shapes
# ordered descending by size, listed in lexicographic order of those runs.  A
# rooted shape on n vertices is a forest of n-1 vertices; rooted at its
# centroid, a tree on n vertices is such a forest whose shapes have at most
# (n-1)//2 vertices each, so free_trees takes the forests of a universe cut at
# that size: nothing larger is built and nothing is filtered out.  The cut
# drops only the universe's leading (largest) entries and shifts every other
# position by the same amount, so the trees come out in the order, and with
# the labels, of all rooted shapes on n vertices filtered for a centroid root.

_Shape = tuple  # recursive tuple of child shapes


def _forests(total: int, cap: int) -> list[_Shape]:
    """Every forest of `total` vertices whose shapes have <= `cap` vertices."""
    universe = [(s, sh) for s in range(cap, 0, -1) for sh in _rooted_shapes(s)]
    out: list[_Shape] = []

    def rec(start: int, remaining: int, acc: list[_Shape]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for i in range(start, len(universe)):
            s, sh = universe[i]
            if s > remaining:
                continue
            acc.append(sh)
            rec(i, remaining - s, acc)
            acc.pop()

    rec(0, total, [])
    return out


@cache
def _rooted_shapes(n: int) -> tuple[_Shape, ...]:
    return tuple(_forests(n - 1, n - 1))


def _shape_to_graph(shape: _Shape, extra_root: _Shape | None = None) -> Graph:
    edges: list[tuple[int, int]] = []
    counter = [1]

    def build(sub: _Shape, parent: int) -> None:
        for child in sub:
            cid = counter[0]
            counter[0] += 1
            edges.append((parent, cid))
            build(child, cid)

    build(shape, 0)
    if extra_root is not None:
        rid = counter[0]
        counter[0] += 1
        edges.append((0, rid))
        build(extra_root, rid)
    return Graph(counter[0], edges)


def free_trees(n: int) -> Iterator[Graph]:
    """All free (unlabeled) trees on n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError("need n >= 1")
    for shape in _forests(n - 1, (n - 1) // 2):
        yield _shape_to_graph(shape)
    if n % 2 == 0:
        halves = _rooted_shapes(n // 2)
        for a, b in combinations_with_replacement(range(len(halves)), 2):
            yield _shape_to_graph(halves[a], extra_root=halves[b])


def free_trees_upto(max_n: int) -> Iterator[Graph]:
    if max_n < 0:
        raise ValueError(f"need max_n >= 0, got {max_n}")
    for n in range(1, max_n + 1):
        yield from free_trees(n)
