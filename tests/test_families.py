"""Component-family generators and recognizers: forward/backward exactness,
and the paper's converse, sharpness and k = 1 minimality on the members."""

from fractions import Fraction
from itertools import combinations

import pytest

from factorsmith.conditions import check_iso_condition, iso_after_removal
from factorsmith.corpus import free_trees_upto, random_expansion_base
from factorsmith.factors import verify_fractional
from factorsmith.families import (
    C3,
    OTHER,
    ComponentClass,
    P2,
    P5,
    classify_component,
    cubic_expansion,
    expand_base_tree,
    is_expansion_base,
    is_tree_expansion,
    star,
    tree_expansion,
)
from factorsmith.graphs import Graph, mask_to_list
from factorsmith.reducer import _component_entries, extract_component_factor_detailed, verify_certificate
from treeutil import degree_sequence, half_degree_units, pendant_half_assignment, tree_canon

K13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
CUBIC6 = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
CUBIC8 = Graph(8, [(0, 1), (1, 2), (0, 3), (0, 4), (1, 5), (2, 6), (2, 7)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def leaves(g: Graph) -> int:
    return sum(1 for v in range(g.n) if g.degree(v) == 1)


def with_pendants(r: Graph) -> Graph:
    """R plus one pendant edge on each leaf: the k = 1 base of a cubic tree R."""
    ends = [v for v in range(r.n) if r.degree(v) == 1]
    return Graph(r.n + len(ends), [*r.edges, *((v, r.n + i) for i, v in enumerate(ends))])


@pytest.fixture(scope="module")
def trees16() -> list[Graph]:
    return list(free_trees_upto(16))


class TestCubicExpansion:
    """T(3): the k = 1 construction on a cubic tree R with a pendant per leaf."""

    def test_three_star_gives_ten_vertex_spider(self):
        t = expand_base_tree(with_pendants(K13), 1)
        assert t.n == 10
        assert degree_sequence(t) == (3, 2, 2, 2, 2, 2, 2, 1, 1, 1)
        assert is_tree_expansion(t, 1)

    def test_single_edge_base_gives_p5(self):
        # the single-edge cubic tree's base is P4; P5 is classified on its own
        t = expand_base_tree(path(4), 1)
        assert degree_sequence(t) == degree_sequence(path(5))
        assert classify_component(t, 1) == P5
        assert not is_tree_expansion(t, 1)

    def test_non_cubic_base_rejected(self):
        for base in (path(5), K13, with_pendants(path(3))):
            with pytest.raises(ValueError):
                expand_base_tree(base, 1)

    def test_six_vertex_base_gives_fifteen(self):
        t = expand_base_tree(with_pendants(CUBIC6), 1)
        assert t.n == 15
        assert is_tree_expansion(t, 1)

    def test_leaf_count_preserved(self):
        for r in (K13, CUBIC6, CUBIC8):
            assert leaves(expand_base_tree(with_pendants(r), 1)) == leaves(r)

    def test_vertex_count_formula(self):
        # |T| = |R| + ||R|| + leaves(R); degree-2 count = ||R|| + leaves(R)
        for r in (K13, CUBIC6, CUBIC8):
            t = expand_base_tree(with_pendants(r), 1)
            assert t.n == r.n + r.num_edges + leaves(r)
            deg2 = sum(1 for v in range(t.n) if t.degree(v) == 2)
            assert deg2 == r.num_edges + leaves(r)
        # the 20-vertex member lies outside the scan in test_forward_backward
        t = expand_base_tree(with_pendants(CUBIC8), 1)
        assert t.n == 5 * CUBIC8.n // 2 == 20
        assert is_tree_expansion(t, 1)

    @pytest.mark.parametrize("g", [path(5), path(7), K13, Graph(3, [(0, 1), (1, 2), (0, 2)])])
    def test_recognizer_rejects(self, g):
        assert not is_tree_expansion(g, 1)

    def test_recognizer_rejects_wrong_gaps(self):
        # two branch vertices joined by a length-3 chain of degree-2 vertices
        g = Graph(10, [(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (3, 6), (3, 7), (4, 8), (5, 9)])
        assert not is_tree_expansion(g, 1)



class TestExpansionBase:
    def test_spec_example_two_centers(self):
        base = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        assert is_expansion_base(base, 2)

    def test_single_core_vertex_rejected(self):
        # path a-b-c plus a leaf on b: core = {b} only
        assert not is_expansion_base(Graph(4, [(0, 1), (1, 2), (1, 3)]), 2)

    def test_even_core_degree_rejected(self):
        # path of 3 core vertices: middle has core degree 2 (even)
        base = Graph(7, [(0, 1), (1, 2), (0, 3), (0, 4), (1, 5), (2, 6)])
        assert not is_expansion_base(base, 2)

    def test_leaf_budget_enforced(self):
        # center with 3 leaves attached: 2*3 + 1 = 7 > 5 at k=2
        base = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)])
        assert not is_expansion_base(base, 2)
        assert is_expansion_base(base, 3)

    def test_k_guard(self):
        with pytest.raises(ValueError):
            is_expansion_base(with_pendants(K13), 0)

    def test_non_tree_rejected(self):
        """A valid base with one more edge, closing a cycle, is no base."""
        base = with_pendants(K13)
        assert is_expansion_base(base, 1)
        assert not is_expansion_base(Graph(base.n, [*base.edges, (4, 5)]), 1)

    def test_k1_base_is_cubic_with_pendants(self):
        for r in (path(2), K13, CUBIC6, CUBIC8):
            assert is_expansion_base(with_pendants(r), 1)
        assert not is_expansion_base(K13, 1)
        # a leaf of R with two pendants, and a degree-3 vertex of R with one
        assert not is_expansion_base(Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4)]), 1)
        assert not is_expansion_base(Graph(8, [*with_pendants(K13).edges, (0, 7)]), 1)


class TestExpandBaseTree:
    def test_spec_arithmetic_k2(self):
        # two centers, two leaves each: no pendants added, one subdivision
        base = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        t = expand_base_tree(base, 2)
        assert t.n == 7
        assert is_tree_expansion(t, 2)

    def test_budget_equation_everywhere(self):
        from factorsmith.corpus import random_expansion_base

        for k in (2, 3):
            for seed in range(25):
                base = random_expansion_base(k, 10, seed)
                t = expand_base_tree(base, k)
                for b in range(t.n):
                    if t.degree(b) >= 3:
                        pend = sum(1 for w in mask_to_list(t.adj[b]) if t.degree(w) == 1)
                        mid = sum(1 for w in mask_to_list(t.adj[b]) if t.degree(w) == 2)
                        assert 2 * pend + mid == 2 * k + 1

    def test_canonical_assignment_verifies(self):
        from factorsmith.corpus import random_expansion_base

        for k in (2, 3):
            for seed in range(25):
                t = expand_base_tree(random_expansion_base(k, 9, seed), k)
                h = pendant_half_assignment(t)
                assert verify_fractional(t, k, h)
                # core vertices sit exactly at the ceiling k + 1/2
                for v in range(t.n):
                    if t.degree(v) >= 3:
                        assert half_degree_units(h, v) == 2 * k + 1

    def test_invalid_base_rejected(self):
        with pytest.raises(ValueError):
            expand_base_tree(path(3), 2)



class TestTreeExpansionRecognizer:
    def test_star_rejected(self):
        for j in (2, 3, 5):
            assert not is_tree_expansion(Graph(j + 1, [(0, i) for i in range(1, j + 1)]), 2)

    def test_adjacent_branches_rejected(self):
        # two adjacent degree-3 vertices
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7)])
        assert not is_tree_expansion(g, 2)

    def test_k_guard(self):
        assert not is_tree_expansion(K13, 1)
        with pytest.raises(ValueError):
            is_tree_expansion(K13, 0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_forward_backward(self, trees16, k):
        """Every base in the scan that expands to <= 16 vertices builds
        exactly the members the recognizer accepts, plus P5 at k = 1.  An
        expansion is at least as large as its base, so no base outside the
        scan builds a tree inside it."""
        generated = set()
        for base in trees16:
            if is_expansion_base(base, k):
                t = expand_base_tree(base, k)
                if t.n <= 16:
                    generated.add(tree_canon(t))
        accepted = {tree_canon(t) for t in trees16 if is_tree_expansion(t, k)}
        if k == 1:
            accepted.add(tree_canon(path(5)))
        # pins the counts, so the equality cannot pass with both sides empty
        assert len(generated) == {1: 3, 2: 2, 3: 1}[k]
        assert generated == accepted

    def test_members_belong_to_their_own_k_only(self):
        from factorsmith.corpus import random_expansion_base

        members = {1: [expand_base_tree(with_pendants(r), 1) for r in (K13, CUBIC6, CUBIC8)]}
        for k in (2, 3):
            members[k] = [
                expand_base_tree(random_expansion_base(k, size, seed), k)
                for size in (4, 9, 20)
                for seed in range(5)
            ]
        for k, trees in members.items():
            for t in trees:
                assert [j for j in range(1, 5) if is_tree_expansion(t, j)] == [k]


class TestClassify:
    def test_f1_members(self):
        assert classify_component(Graph(2, [(0, 1)]), 1) == P2
        assert classify_component(Graph(3, [(0, 1), (1, 2), (0, 2)]), 1) == C3
        assert classify_component(path(5), 1) == P5
        assert classify_component(expand_base_tree(with_pendants(K13), 1), 1) == cubic_expansion()
        assert classify_component(expand_base_tree(path(4), 1), 1) == P5

    def test_f1_rejects(self):
        assert classify_component(path(3), 1) == OTHER
        assert classify_component(K13, 1) == OTHER

    def test_f2_members(self):
        assert classify_component(Graph(2, [(0, 1)]), 2) == star(1)
        assert classify_component(Graph(3, [(0, 1), (0, 2)]), 2) == star(2)
        base = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        assert classify_component(expand_base_tree(base, 2), 2) == tree_expansion(2)

    def test_f2_rejects(self):
        assert classify_component(Graph(3, [(0, 1), (1, 2), (0, 2)]), 2) == OTHER
        assert classify_component(Graph(5, [(0, i) for i in range(1, 5)]), 2) == OTHER
        assert classify_component(path(5), 2) == OTHER

    def test_class_invariants(self):
        """A star needs j >= 1 and a tree expansion k >= 2."""
        for param in (None, 0, -1):
            with pytest.raises(ValueError, match="^star class needs j >= 1$"):
                ComponentClass("star", param)
        for param in (None, 1):
            with pytest.raises(ValueError, match="^tree expansion class needs k >= 2$"):
                ComponentClass("tree_expansion", param)
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
    """The distinct expansions of random bases with at most 20 vertices."""
    members = {}
    for k in (1, 2, 3):
        trees = {
            expand_base_tree(random_expansion_base(k, size, seed), k)
            for size in range(4, 40)
            for seed in range(25)
        }
        members[k] = sorted((t for t in trees if t.n <= 20), key=lambda t: (t.n, t.edges))
    return members


class TestTheorem:
    """The paper's (i) and (ii) on the family members themselves: a member is
    its own factor, so it meets the condition at k + 1/2 (converse); S =
    core(T) isolates exactly (k + 1/2)|S|, so it fails at c = k (sharpness);
    and at k = 1 no proper part of it is a factor (minimality)."""

    def test_member_counts(self, expansion_members):
        assert {k: len(ts) for k, ts in expansion_members.items()} == {1: 25, 2: 21, 3: 27}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_converse(self, expansion_members, k):
        for t in expansion_members[k]:
            assert check_iso_condition(t, Fraction(2 * k + 1, 2)) is None, t

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sharpness(self, expansion_members, k):
        for t in expansion_members[k]:
            s = core(t)
            assert 2 * len(iso_after_removal(t, s)) == (2 * k + 1) * len(s), t
            assert check_iso_condition(t, Fraction(k)) is not None, t

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
