"""Isolated-vertex condition checker and isolated toughness vs. brute-force oracles."""

from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorsmith import conditions
from factorsmith.conditions import (
    TOUGHNESS_MAX_N,
    ConditionWitness,
    check_iso_condition,
    iso_after_removal,
    isolated_toughness,
    parse_ratio,
)
from factorsmith.corpus import enumerate_exhaustive, free_trees_upto, random_gnp, random_tree
from factorsmith.factors import find_fractional_factor
from factorsmith.graphs import Graph

K13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
K5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


RATIOS = [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)]


def reference_witness(g: Graph, c: Fraction) -> ConditionWitness | None:
    """The combinations scan check_iso_condition replaced: each subset of
    each size in itertools.combinations order, with a fresh mask and a
    rescan of all n vertices per subset."""
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
            iso = [v for v in range(n) if not smask >> v & 1 and adj[v] & ~smask == 0]
            if len(iso) * den > num * size:
                return ConditionWitness(frozenset(subset), frozenset(iso))
    return None


def unpruned_has_witness(g: Graph, c: Fraction) -> bool:
    """Full 2^n reference scan."""
    for smask in range(1 << g.n):
        size = smask.bit_count()
        iso = sum(1 for v in range(g.n) if not smask >> v & 1 and g.adj[v] & ~smask == 0)
        if iso * c.denominator > c.numerator * size:
            return True
    return False


def brute_toughness(g: Graph) -> Fraction | None:
    """Independent full enumeration via combinations."""
    best = None
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            iso = len(iso_after_removal(g, subset))
            if iso >= 2:
                val = Fraction(size, iso)
                if best is None or val < best:
                    best = val
    return best


def _max_flow(cap: dict[int, dict[int, int]], s: int, t: int) -> int:
    """Shortest augmenting paths on a residual capacity map; every arc u->v
    needs a (possibly zero) reverse entry cap[v][u]."""
    flow = 0
    while True:
        parent = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v, room in cap[u].items():
                if room > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        path = []
        v = t
        while v != s:
            path.append((parent[v], v))
            v = parent[v]
        push = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= push
            cap[v][u] += push
        flow += push


def cut_verdict(g: Graph, c: Fraction) -> bool:
    """True iff iso(G-S) <= c*|S| for every S, for c = p/q >= 1: the network
    s -> L_x of capacity q, L_x -> R_y unbounded for each edge xy and
    R_y -> t of capacity p carries q*n.  A cut that keeps X on the source
    side costs q*(n - |X|) + p*|N(X)|, so the flow is q*n iff
    q*|X| <= p*|N(X)| for every vertex set X."""
    p, q, n = c.numerator, c.denominator, g.n
    s, t = 2 * n, 2 * n + 1
    cap: dict[int, dict[int, int]] = {v: {} for v in range(2 * n + 2)}

    def arc(u: int, v: int, room: int) -> None:
        cap[u][v] = room
        cap[v][u] = 0

    for x in range(n):
        arc(s, x, q)
        arc(n + x, t, p)
    for x, y in g.edges:
        arc(x, n + y, q * n)
        arc(y, n + x, q * n)
    return _max_flow(cap, s, t) == q * n


class TestIsoAfterRemoval:
    def test_star_center(self):
        assert iso_after_removal(K13, {0}) == frozenset({1, 2, 3})

    def test_c5_empty(self):
        assert iso_after_removal(C5, set()) == frozenset()

    def test_p4_alternating(self):
        assert iso_after_removal(P4, {1, 3}) == frozenset({0, 2})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            iso_after_removal(P4, {9})

    def test_out_of_range_at_both_ends(self):
        """n and -1 lie just outside 0..n-1."""
        for v in (4, -1):
            with pytest.raises(ValueError, match=f"^vertex {v} outside 0..3$"):
                iso_after_removal(P4, {v})


class TestCheckCondition:
    def test_isolated_vertex_fails_at_empty_set(self):
        g = Graph(3, [(0, 1)])
        w = check_iso_condition(g, Fraction(3, 2))
        assert w is not None and w.removed == frozenset()
        assert w.isolated == frozenset({2})

    def test_star_witness_is_center(self):
        w = check_iso_condition(K13, Fraction(3, 2))
        assert w is not None
        assert w.removed == frozenset({0})
        assert w.isolated == frozenset({1, 2, 3})

    def test_c5_holds(self):
        assert check_iso_condition(C5, Fraction(3, 2)) is None

    def test_ratio_guard(self):
        with pytest.raises(ValueError):
            check_iso_condition(C5, Fraction(0))

    def test_empty_graph_holds(self):
        assert check_iso_condition(Graph(0), Fraction(3, 2)) is None

    def test_minimum_size_then_lex_tie_break(self):
        # two disjoint stars: several witnesses; smallest is the lone center 0
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)])
        w = check_iso_condition(g, Fraction(3, 2))
        assert w.removed == frozenset({0})

    def test_exhaustive_agreement_with_unpruned(self):
        ratios = [Fraction(1, 1), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)]
        for n in range(1, 6):
            for g in enumerate_exhaustive(n):
                for c in ratios:
                    assert (check_iso_condition(g, c) is not None) == unpruned_has_witness(g, c)

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=5000),
        st.sampled_from([Fraction(3, 2), Fraction(5, 2), Fraction(7, 2), Fraction(2, 3)]),
    )
    def test_random_agreement_with_unpruned(self, n, seed, c):
        g = random_gnp(n, Fraction(2, 5), seed)
        assert (check_iso_condition(g, c) is not None) == unpruned_has_witness(g, c)

    def test_exhaustive_witness_identity(self):
        # same S and isolated set as the combinations scan, not just the verdict
        for n in range(1, 6):
            for g in enumerate_exhaustive(n):
                for c in RATIOS:
                    assert check_iso_condition(g, c) == reference_witness(g, c), (g, c)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from([Fraction(1, 4), Fraction(2, 5), Fraction(1, 2), Fraction(2, 3)]),
        st.integers(min_value=0, max_value=5000),
        st.sampled_from(RATIOS),
    )
    def test_random_witness_identity(self, n, p, seed, c):
        """At p = 1/2 and 2/3 most neighbours have more neighbours than
        the removal set has vertices, so the walk skips them."""
        g = random_gnp(n, p, seed)
        assert check_iso_condition(g, c) == reference_witness(g, c)

    def test_free_tree_witness_identity(self):
        """Same S and isolated set as the combinations scan on every free
        tree with n <= 12 at every ratio; on trees the walk decides far
        more often than on the small labelled graphs."""
        checks = walked = 0
        for g in free_trees_upto(12):
            for c in RATIOS:
                w = check_iso_condition(g, c)
                assert w == reference_witness(g, c), (g, c)
                checks += 1
                walked += w is not None and len(w.removed) >= 2
        assert (checks, walked) == (5922, 107)

    def test_int_ratio_is_the_equal_fraction(self):
        for n in range(1, 6):
            for g in enumerate_exhaustive(n):
                for c in (1, 2, 3):
                    assert check_iso_condition(g, c) == check_iso_condition(g, Fraction(c)), (g, c)
        assert check_iso_condition(K13, 2) == ConditionWitness(frozenset({0}), frozenset({1, 2, 3}))

    def test_cut_verdict_agrees(self):
        for n in range(1, 6):
            for g in enumerate_exhaustive(n):
                for c in (Fraction(1), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)):
                    assert (check_iso_condition(g, c) is None) == cut_verdict(g, c), (g, c)
        for seed in range(20):
            for g in (random_tree(18, seed), random_gnp(16, Fraction(1, 4), seed)):
                for c in (Fraction(3, 2), Fraction(5, 2)):
                    assert (check_iso_condition(g, c) is None) == cut_verdict(g, c), (g, c)

    def test_witness_vertices_each_isolate_more_than_c(self):
        """Every vertex x of the answer S has more than c neighbours in
        S.isolated, the minimum-violator property the module docstring
        proves, on every labelled graph with n <= 6."""
        witnesses = 0
        for n in range(1, 7):
            for g in enumerate_exhaustive(n):
                for c in sorted(RATIOS + [Fraction(2)]):
                    w = check_iso_condition(g, c)
                    if w is None:
                        continue
                    witnesses += 1
                    isolated = sum(1 << v for v in w.isolated)
                    for x in w.removed:
                        assert (g.adj[x] & isolated).bit_count() > c, (g, c, x)
        assert witnesses == 91_157

    def test_witness_is_actually_violating(self):
        for seed in range(50):
            g = random_gnp(8, Fraction(1, 4), seed)
            c = Fraction(3, 2)
            w = check_iso_condition(g, c)
            if w is None:
                continue
            assert w.isolated == iso_after_removal(g, w.removed)
            assert len(w.isolated) * c.denominator > c.numerator * len(w.removed)


def spider(j: int, legs: list[int], last: bool = False) -> Graph:
    """A centre with j leaves and one path of each length in `legs`; the
    centre is vertex 0, or with `last` every label is reversed so that it
    is the largest."""
    pairs = [(0, i) for i in range(1, j + 1)]
    top = j
    for length in legs:
        prev = 0
        for top in range(top + 1, top + length + 1):
            pairs.append((prev, top))
            prev = top
    n = top + 1
    return Graph(n, [(n - 1 - u, n - 1 - v) if last else (u, v) for u, v in pairs])


def counted_walks(monkeypatch) -> list:
    """Record each call of the walk over removal sets of size >= 2."""
    calls = []
    real = conditions._walk_removal_sets

    def counted(adj, p, q):
        calls.append((p, q))
        return real(adj, p, q)

    monkeypatch.setattr(conditions, "_walk_removal_sets", counted)
    return calls


class TestLocalObstructions:
    """S = {} and S = {v} are decided from the masks before the walk; these
    plant each kind and compare with the combinations scan."""

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_leaf_centre(self, j):
        """For j >= 2 the centre of j leaves is the only vertex with more
        than one leaf neighbour: it violates at c = j - 1/2, alone and
        first, and no single vertex does at c = j + 1/2.  For j = 1 a leg's
        other end may come first, and the scan alone decides."""
        below, above = Fraction(2 * j - 1, 2), Fraction(2 * j + 1, 2)
        for legs in ([], [2], [2, 3]):
            for last in (False, True):
                g = spider(j, legs, last)
                centre = g.n - 1 if last else 0
                leaves = frozenset(v for v in range(g.n) if g.adj[v] == 1 << centre)
                assert len(leaves) == j
                if j >= 2:
                    assert check_iso_condition(g, below) == ConditionWitness(frozenset({centre}), leaves)
                    w = check_iso_condition(g, above)
                    assert w is None or len(w.removed) >= 2
                for c in RATIOS + [below, above]:
                    assert check_iso_condition(g, c) == reference_witness(g, c), (g, c)

    def test_isolated_vertex_at_every_position(self):
        for n in range(1, 8):
            for pos in range(n):
                rest = [v for v in range(n) if v != pos]
                for g in (Graph(n, zip(rest, rest[1:])), Graph(n, [(0, 1)] if pos > 1 else [])):
                    expected = ConditionWitness(frozenset(), frozenset(v for v in range(n) if not g.adj[v]))
                    assert pos in expected.isolated
                    for c in RATIOS:
                        assert check_iso_condition(g, c) == reference_witness(g, c) == expected, (g, c)

    def test_minimum_witness_of_size_two_enters_the_walk(self, monkeypatch):
        """K2,5 has no leaf, and removing one hub isolates nothing; the two
        hubs together isolate all five others."""
        g = Graph(7, [(u, w) for u in range(2) for w in range(2, 7)])
        calls = counted_walks(monkeypatch)
        for c in RATIOS:
            assert check_iso_condition(g, c) == reference_witness(g, c), c
        expected = ConditionWitness(frozenset({0, 1}), frozenset(range(2, 7)))
        assert check_iso_condition(g, Fraction(3, 2)) == expected
        assert calls


class TestWorkCounts:
    """A witness of size 0 or 1 is read off the masks: the walk over
    larger removal sets is never entered, at any n."""

    @pytest.mark.parametrize("seed", range(3))
    def test_leaf_centre_in_a_large_tree(self, seed, monkeypatch):
        g = random_tree(3000, seed)
        c = Fraction(3, 2)
        calls = counted_walks(monkeypatch)
        w = check_iso_condition(g, c)
        assert calls == []
        (v,) = w.removed
        assert w.isolated == iso_after_removal(g, w.removed) and 2 * len(w.isolated) > 3
        deg = [m.bit_count() for m in g.adj]
        leaf_nbrs = [0] * g.n
        for a, b in g.edges:
            leaf_nbrs[a] += deg[b] == 1
            leaf_nbrs[b] += deg[a] == 1
        assert min(u for u in range(g.n) if 2 * leaf_nbrs[u] > 3) == v
        # the factor engine refuses the same centre, also without an edge list
        listed = []
        edges = Graph.edges
        monkeypatch.setattr(Graph, "edges", property(lambda h: listed.append(h) or edges.fget(h)))
        assert find_fractional_factor(g, 1) is None
        assert listed == [] and calls == []

    def test_isolated_vertex_in_a_large_graph(self, monkeypatch):
        n, lone = 5000, 2718
        rest = [v for v in range(n) if v != lone]
        g = Graph(n, zip(rest, rest[1:] + rest[:1]))
        calls = counted_walks(monkeypatch)
        for c in (Fraction(1, 2), Fraction(3, 2)):
            assert check_iso_condition(g, c) == ConditionWitness(frozenset(), frozenset({lone}))
        assert calls == []

    @pytest.mark.parametrize("c, sizes", [(Fraction(3, 2), 3), (Fraction(5, 2), 2)])
    def test_holding_cycle_walks_each_size_in_range(self, c, sizes, monkeypatch):
        """C12 holds at c >= 1, so the walk tries every size s >= 2 with
        s*(1+c) < 12 and no other: 2..4 at 3/2 and 2..3 at 5/2.  Every
        vertex has degree 2, so for each size the walk lists both
        neighbours of each vertex, and nothing else."""
        g = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
        listed = []
        real = conditions.mask_to_list
        monkeypatch.setattr(conditions, "mask_to_list", lambda m: listed.append(real(m)) or listed[-1])
        assert check_iso_condition(g, c) is None
        assert listed == [sorted(((v - 1) % 12, (v + 1) % 12)) for v in range(12)] * sizes


class TestToughness:
    def test_complete_graph_infinite(self):
        assert isolated_toughness(K5) is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_star_one_over_n(self, n):
        star = Graph(n + 1, [(0, i) for i in range(1, n + 1)])
        assert isolated_toughness(star) == Fraction(1, n)

    def test_p4_is_one(self):
        assert isolated_toughness(P4) == Fraction(1)

    def test_c5_three_halves(self):
        assert isolated_toughness(C5) == Fraction(3, 2)

    def test_empty_graph_infinite(self):
        assert isolated_toughness(Graph(0)) is None

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=5000))
    def test_brute_agreement(self, n, seed):
        g = random_gnp(n, Fraction(1, 2), seed)
        assert isolated_toughness(g) == brute_toughness(g)

    def test_brute_agreement_exhaustive(self):
        for n in range(1, 6):
            for g in enumerate_exhaustive(n):
                assert isolated_toughness(g) == brute_toughness(g), g

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=5000))
    def test_brute_agreement_trees(self, n, seed):
        g = random_tree(n, seed)
        assert isolated_toughness(g) == brute_toughness(g)

    def test_size_guard(self):
        with pytest.raises(ValueError, match=f"n <= {TOUGHNESS_MAX_N}, got n = {TOUGHNESS_MAX_N + 1}"):
            isolated_toughness(Graph(TOUGHNESS_MAX_N + 1))

    @pytest.mark.parametrize(
        "g, value",
        [
            (Graph(20), Fraction(0)),
            (Graph(20, [(0, i) for i in range(1, 20)]), Fraction(1, 19)),
            (Graph(20, [(a, i) for a in (0, 1) for i in range(2, 20)]), Fraction(1, 9)),
            (Graph(20, [(i, i + 1) for i in range(19)]), Fraction(1)),
            (Graph(20, [(i, (i + 1) % 20) for i in range(20)]), Fraction(1)),
            (Graph(20, [(i, j) for i in range(20) for j in range(i + 1, 20)]), None),
            (random_tree(20, 1), Fraction(1, 2)),
        ],
        ids=["edgeless", "K1_19", "K2_18", "P20", "C20", "K20", "tree20"],
    )
    def test_at_size_guard(self, g, value):
        """Pinned values at n = TOUGHNESS_MAX_N, the largest size answered."""
        assert isolated_toughness(g) == value


class TestParseRatio:
    def test_accepted(self):
        assert parse_ratio("3/2") == Fraction(3, 2)
        assert parse_ratio("5/2") == Fraction(5, 2)

    @pytest.mark.parametrize("bad", ["3", "1.5", "3/0", "3/-2", "a/b", "3/2/1"])
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_ratio(bad)
