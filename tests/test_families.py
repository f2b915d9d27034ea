"""Component-family generators and recognizers: forward/backward exactness,
and the paper's converse, sharpness and k = 1 minimality on the members."""

from fractions import Fraction
from itertools import combinations

import pytest

from factorsmith.conditions import check_iso_condition, iso_after_removal
from factorsmith.corpus import enumerate_exhaustive, free_trees_upto, random_tree_expansion
from factorsmith.factors import verify_fractional
from factorsmith.families import (
    C3,
    OTHER,
    P2,
    P5,
    classify_component,
    cubic_expansion,
    expand_core_tree,
    star,
    tree_expansion,
)
from factorsmith.graphs import Graph, connected_components, is_tree, mask_to_list
from factorsmith.reducer import _component_entries, extract_component_factor_detailed, verify_certificate
from treeutil import degree_sequence, half_degree_units, is_tree_expansion, pendant_half_assignment, tree_canon

K13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
CHAIR = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])  # K1,3 with one edge subdivided
CUBIC6 = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
CUBIC8 = Graph(8, [(0, 1), (1, 2), (0, 3), (0, 4), (1, 5), (2, 6), (2, 7)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(j: int) -> Graph:
    return Graph(j + 1, [(0, i) for i in range(1, j + 1)])


def leaves(g: Graph) -> int:
    return sum(1 for v in range(g.n) if g.degree(v) == 1)


@pytest.fixture(scope="module")
def trees16() -> list[Graph]:
    return list(free_trees_upto(16))


@pytest.fixture(scope="module")
def cyclic6() -> list[Graph]:
    """The connected labelled graphs with n <= 6 that are not trees."""
    graphs = [g for n in range(1, 7) for g in enumerate_exhaustive(n) if not is_tree(g)]
    cyclic = [g for g in graphs if len(connected_components(g.n, g.adj)) == 1]
    assert len(cyclic) == 26034
    return cyclic


class TestCubicExpansion:
    """T(3): the k = 1 construction on a cubic core tree R."""

    def test_three_star_gives_ten_vertex_spider(self):
        t = expand_core_tree(K13, 1)
        assert t.n == 10
        assert degree_sequence(t) == (3, 2, 2, 2, 2, 2, 2, 1, 1, 1)
        assert is_tree_expansion(t, 1)

    def test_single_edge_base_gives_p5(self):
        # the single-edge core is P2; P5 is classified on its own
        t = expand_core_tree(path(2), 1)
        assert degree_sequence(t) == degree_sequence(path(5))
        assert classify_component(t, 1) == P5
        assert not is_tree_expansion(t, 1)

    def test_non_cubic_base_rejected(self):
        for r in (path(3), path(4), star_graph(5)):
            with pytest.raises(ValueError, match="^core tree degrees must be odd and <= 3, "):
                expand_core_tree(r, 1)

    def test_six_vertex_base_gives_fifteen(self):
        t = expand_core_tree(CUBIC6, 1)
        assert t.n == 15
        assert is_tree_expansion(t, 1)

    def test_leaf_count_preserved(self):
        for r in (K13, CUBIC6, CUBIC8):
            assert leaves(expand_core_tree(r, 1)) == leaves(r)

    def test_vertex_count_formula(self):
        # |T| = |R| + ||R|| + leaves(R) = 5|R|/2; degree-2 count = ||R|| + leaves(R)
        for r in (K13, CUBIC6, CUBIC8):
            t = expand_core_tree(r, 1)
            assert t.n == r.n + r.num_edges + leaves(r) == 5 * r.n // 2
            deg2 = sum(1 for v in range(t.n) if t.degree(v) == 2)
            assert deg2 == r.num_edges + leaves(r)
        # the 20-vertex member lies outside the scan in test_forward_backward
        t = expand_core_tree(CUBIC8, 1)
        assert t.n == 20
        assert is_tree_expansion(t, 1)

    @pytest.mark.parametrize("g", [path(5), path(7), K13, Graph(3, [(0, 1), (1, 2), (0, 2)])])
    def test_recognizer_rejects(self, g):
        assert not is_tree_expansion(g, 1)

    def test_recognizer_rejects_wrong_gaps(self):
        # two branch vertices joined by a length-3 chain of degree-2 vertices
        g = Graph(10, [(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (3, 6), (3, 7), (4, 8), (5, 9)])
        assert not is_tree_expansion(g, 1)


class TestExpansionBase:
    """The guards of `expand_core_tree`: the base it expands must be a tree
    on >= 2 vertices whose degrees are all odd and <= 2k+1, and k >= 1."""

    def test_spec_example_two_centers(self):
        # the single edge at k = 2: two centers, two pendant edges each
        t = expand_core_tree(path(2), 2)
        assert t == Graph(7, [(0, 2), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6)])

    def test_single_core_vertex_rejected(self):
        for k in (1, 2):
            with pytest.raises(ValueError, match="^core tree must be a tree on >= 2 vertices, got n = 1, 0 edges$"):
                expand_core_tree(Graph(1), k)

    def test_even_core_degree_rejected(self):
        # P3's middle vertex has degree 2
        with pytest.raises(ValueError, match="^core tree degrees must be odd and <= 5, vertex 1 has degree 2$"):
            expand_core_tree(path(3), 2)

    def test_leaf_budget_enforced(self):
        # K1,7's centre has degree 7 > 2k+1 = 5 at k = 2; at k = 3 it has no pendant edge
        with pytest.raises(ValueError, match="^core tree degrees must be odd and <= 5, vertex 0 has degree 7$"):
            expand_core_tree(star_graph(7), 2)
        t = expand_core_tree(star_graph(7), 3)
        assert t.n == 8 * 9 // 2 and t.degree(0) == 7
        assert is_tree_expansion(t, 3)

    def test_k_guard(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
                expand_core_tree(K13, k)

    def test_non_tree_rejected(self):
        """K1,3 with one more edge, closing a cycle, is no core tree; neither
        is two disjoint edges."""
        for g in (Graph(4, [*K13.edges, (1, 2)]), Graph(4, [(0, 1), (2, 3)])):
            with pytest.raises(ValueError, match="^core tree must be a tree on >= 2 vertices, got n = 4, "):
                expand_core_tree(g, 1)

    def test_k1_base_is_cubic_with_pendants(self):
        """At k = 1 the core is a cubic tree, and each of its leaves gets one
        pendant edge, each degree-3 vertex none."""
        for r in (path(2), K13, CUBIC6, CUBIC8):
            t = expand_core_tree(r, 1)
            for v in range(r.n):
                ends = sum(1 for w in mask_to_list(t.adj[v]) if t.degree(w) == 1)
                assert (r.degree(v), ends) in ((1, 1), (3, 0))


class TestExpandBaseTree:
    """T(2k+1) at k >= 2, built on the core tree R."""

    def test_spec_arithmetic_k2(self):
        # K1,3 at k = 2: three subdivisions, one pendant on the centre, two on each leaf
        t = expand_core_tree(K13, 2)
        assert t.n == 4 * 7 // 2 == 14
        assert is_tree_expansion(t, 2)

    def test_budget_equation_everywhere(self):
        for k in (2, 3):
            for seed in range(25):
                t = random_tree_expansion(k, 30, seed)
                for b in range(t.n):
                    if t.degree(b) >= 3:
                        pend = sum(1 for w in mask_to_list(t.adj[b]) if t.degree(w) == 1)
                        mid = sum(1 for w in mask_to_list(t.adj[b]) if t.degree(w) == 2)
                        assert 2 * pend + mid == 2 * k + 1

    def test_canonical_assignment_verifies(self):
        for k in (2, 3):
            for seed in range(25):
                t = random_tree_expansion(k, 30, seed)
                h = pendant_half_assignment(t)
                assert verify_fractional(t, k, h)
                # core vertices sit exactly at the ceiling k + 1/2
                for v in range(t.n):
                    if t.degree(v) >= 3:
                        assert half_degree_units(h, v) == 2 * k + 1

    def test_invalid_base_rejected(self):
        with pytest.raises(ValueError):
            expand_core_tree(path(3), 2)


class TestTreeExpansionRecognizer:
    def test_star_rejected(self):
        for j in (2, 3, 5):
            assert not is_tree_expansion(star_graph(j), 2)

    def test_adjacent_branches_rejected(self):
        # two adjacent degree-3 vertices
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7)])
        assert not is_tree_expansion(g, 2)

    def test_k_guard(self):
        assert not is_tree_expansion(K13, 1)
        with pytest.raises(ValueError):
            is_tree_expansion(K13, 0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_forward_backward(self, trees16, cyclic6, k):
        """The core trees R in the scan whose expansion has <= 16 vertices
        build exactly the members the recognizer accepts, plus P5 at k = 1.
        An expansion is larger than its core, so no core outside the scan
        builds a tree inside it.

        Then the classifier against the family built by construction: P2
        and P5 at k = 1, K1,j for j <= k at k >= 2, and the members of
        T(2k+1) with <= 14 vertices.  Every free tree with n <= 14 gets its
        member's tag or OTHER, and C3 at k = 1 is the only connected
        labelled graph with a cycle and n <= 6 that gets a tag."""
        members = {}
        for r in trees16:
            if r.n >= 2 and all(r.degree(v) % 2 == 1 and r.degree(v) <= 2 * k + 1 for v in range(r.n)):
                t = expand_core_tree(r, k)
                if t.n <= 16:
                    members[tree_canon(t)] = t
        generated = set(members)
        accepted = {tree_canon(t) for t in trees16 if is_tree_expansion(t, k)}
        if k == 1:
            accepted.add(tree_canon(path(5)))
        # pins the counts, so the equality cannot pass with both sides empty
        assert len(generated) == {1: 3, 2: 2, 3: 1}[k]
        assert generated == accepted

        tag = cubic_expansion() if k == 1 else tree_expansion(k)
        family = {canon: tag for canon, t in members.items() if t.n <= 14}
        if k == 1:
            family |= {tree_canon(path(2)): P2, tree_canon(path(5)): P5}
        else:
            family |= {tree_canon(star_graph(j)): star(j) for j in range(1, k + 1)}
        assert len(family) == {1: 3, 2: 4, 3: 4}[k]
        small = [t for t in trees16 if t.n <= 14]
        assert len(small) == 5447
        tags = [classify_component(t, k) for t in small]
        assert tags == [family.get(tree_canon(t), OTHER) for t in small]
        assert sum(tag != OTHER for tag in tags) == len(family)
        assert [g for g in cyclic6 if classify_component(g, k) != OTHER] == ([K3] if k == 1 else [])

    def test_members_belong_to_their_own_k_only(self):
        members = {1: [expand_core_tree(r, 1) for r in (K13, CUBIC6, CUBIC8)]}
        for k in (2, 3):
            members[k] = [random_tree_expansion(k, size, seed) for size in (14, 20, 40) for seed in range(5)]
        for k, trees in members.items():
            for t in trees:
                assert [j for j in range(1, 5) if is_tree_expansion(t, j)] == [k]


class TestClassify:
    def test_f1_members(self):
        assert classify_component(Graph(2, [(0, 1)]), 1) == P2
        assert classify_component(Graph(3, [(0, 1), (1, 2), (0, 2)]), 1) == C3
        assert classify_component(path(5), 1) == P5
        assert classify_component(expand_core_tree(K13, 1), 1) == cubic_expansion()
        assert classify_component(expand_core_tree(path(2), 1), 1) == P5

    def test_f1_rejects(self):
        assert classify_component(path(3), 1) == OTHER
        assert classify_component(K13, 1) == OTHER

    def test_chair_is_no_member(self):
        """The chair has P5's order and a vertex of degree 3, so it is no
        path, star or expansion at any k."""
        for k in (1, 2, 3):
            assert classify_component(CHAIR, k) == OTHER

    def test_f2_members(self):
        assert classify_component(Graph(2, [(0, 1)]), 2) == star(1)
        assert classify_component(Graph(3, [(0, 1), (0, 2)]), 2) == star(2)
        assert classify_component(expand_core_tree(path(2), 2), 2) == tree_expansion(2)

    def test_f2_rejects(self):
        assert classify_component(Graph(3, [(0, 1), (1, 2), (0, 2)]), 2) == OTHER
        assert classify_component(Graph(5, [(0, i) for i in range(1, 5)]), 2) == OTHER
        assert classify_component(path(5), 2) == OTHER

    def test_class_invariants(self):
        """A star's label names j, and a tree expansion's names k; a
        malformed tag never certifies (`TestVerifyCertificate` in
        test_reducer.py)."""
        assert star(1).label == "K1,1" and tree_expansion(2).label == "tree-expansion(2)"

    def test_family_validation(self):
        """k alone fixes the family, and k < 1 fixes none."""
        for k in (0, -1):
            with pytest.raises(ValueError):
                classify_component(Graph(2, [(0, 1)]), k)


def core(t: Graph) -> list[int]:
    """The vertices of degree >= 3 or next to a leaf."""
    leaves = [t.degree(v) == 1 for v in range(t.n)]
    return [v for v in range(t.n) if t.degree(v) >= 3 or any(leaves[w] for w in mask_to_list(t.adj[v]))]


def forest_classifies(n: int, edges, k: int) -> bool:
    """Every component of the spanning forest on these edges classifies at k."""
    return all(e.cls != OTHER for e in _component_entries(n, edges, k))


@pytest.fixture(scope="module")
def expansion_members() -> dict[int, list[Graph]]:
    """The distinct labelled members that `random_tree_expansion` draws on
    cores of at most 8 vertices at k = 1 and 6 at k = 2, 3: 20, 21 and 27
    vertices at most.  The exhaustive condition check grows fast past these
    sizes: over a second a member at k = 1 on 25 vertices."""
    members = {}
    for k, cap in ((1, 20), (2, 21), (3, 27)):
        trees = {random_tree_expansion(k, size, seed) for size in range(2 * k + 3, cap + 1) for seed in range(25)}
        members[k] = sorted(trees, key=lambda t: (t.n, t.edges))
    return members


class TestTheorem:
    """The paper's (i) and (ii) on the family members themselves: a member is
    its own factor, so it meets the condition at k + 1/2 (converse); S =
    core(T) isolates exactly (k + 1/2)|S|, so it fails at c = k (sharpness);
    and at k = 1 no proper part of it is a factor (minimality)."""

    def test_member_counts(self, expansion_members):
        assert {k: len(ts) for k, ts in expansion_members.items()} == {1: 25, 2: 10, 3: 10}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_converse(self, expansion_members, k):
        for t in expansion_members[k]:
            assert check_iso_condition(t, Fraction(2 * k + 1, 2)) is None, t

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sharpness(self, expansion_members, k):
        for t in expansion_members[k]:
            s = core(t)
            assert 2 * len(iso_after_removal(t, s)) == (2 * k + 1) * len(s), t
            witness = check_iso_condition(t, Fraction(k))
            # the witness is re-evaluated, not trusted
            assert iso_after_removal(t, witness.removed) == witness.isolated, t
            assert len(witness.isolated) > k * len(witness.removed), t

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_member_is_its_own_factor(self, expansion_members, k):
        for t in expansion_members[k]:
            cert, _h, _trace = extract_component_factor_detailed(t, k)
            assert verify_certificate(t, cert)
            assert [e.cls for e in cert.components] == [classify_component(t, k)], t

    def test_k1_minimality(self, trees16):
        """No proper edge subset of P5 or of a T(3) member with n <= 16 is a
        spanning forest whose components all lie in the k = 1 family."""
        members = [path(5), *(t for t in trees16 if is_tree_expansion(t, 1))]
        assert [t.n for t in members] == [5, 10, 15]
        for t in members:
            assert forest_classifies(t.n, t.edges, 1)
            for size in range(t.num_edges):
                for edges in combinations(t.edges, size):
                    assert not forest_classifies(t.n, edges, 1), (t, edges)
