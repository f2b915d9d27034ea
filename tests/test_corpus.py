"""Corpus generators: determinism, counts, structural postconditions."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorsmith.cli import main
from factorsmith.corpus import (
    SplitMix64,
    enumerate_exhaustive,
    free_trees,
    free_trees_upto,
    paths_and_cycles,
    random_expansion_base,
    random_gnp,
    random_tree,
)
from factorsmith.families import expand_base_tree, is_expansion_base
from factorsmith.graphs import Graph, encode_graph6, is_tree, parse_graph6
from treeutil import degree_sequence, tree_canon

# number of free trees on n vertices, n = 1..16 (OEIS A000055)
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]

# sha256 of the graph6 lines ("...\n") of free_trees_upto(16): pins the order
# and the labels of all 32,508 trees
FREE_TREES_16_DIGEST = "285f00e70cc4e68b811c4d6cff3b3a9245f01f63b0f4693706f1d85b6d8e2738"


class TestExhaustive:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 8), (4, 64)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_exhaustive(n)) == count

    def test_all_distinct(self):
        graphs = list(enumerate_exhaustive(3))
        assert len(set(graphs)) == 8

    def test_range_guard(self):
        with pytest.raises(ValueError):
            list(enumerate_exhaustive(8))
        with pytest.raises(ValueError):
            list(enumerate_exhaustive(0))


class TestGnp:
    def test_extremes(self):
        assert random_gnp(6, Fraction(0), 1).num_edges == 0
        assert random_gnp(6, Fraction(1), 1).num_edges == 15

    def test_deterministic(self):
        a = random_gnp(8, Fraction(1, 2), 1)
        b = random_gnp(8, Fraction(1, 2), 1)
        assert a == b

    def test_seed_matters(self):
        outs = {random_gnp(8, Fraction(1, 2), s) for s in range(10)}
        assert len(outs) > 1

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            random_gnp(5, Fraction(3, 2), 0)

    @pytest.mark.parametrize("p", ["0", "1/3", "1/2", "2/7", "12/3000", "5/7", "1"])
    def test_keep_boundary(self, monkeypatch, p):
        """A pair is kept exactly when its draw x has x * den < num * 2^64,
        also at the two draws around ceil(p * 2^64), where a floor limit
        would keep one draw too few."""
        p = Fraction(p)
        limit = -((-p.numerator << 64) // p.denominator)  # ceil(p * 2^64)
        for x in (limit - 1, limit):
            monkeypatch.setattr(SplitMix64, "next_u64", lambda self, x=x: x)
            keep = x * p.denominator < p.numerator << 64
            assert random_gnp(2, p, 0).num_edges == keep


class TestSplitMix:
    def test_reference_values(self):
        # seed 0 stream of the standard SplitMix64 mixer
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_randrange_bounds(self):
        rng = SplitMix64(42)
        draws = [rng.randrange(7) for _ in range(200)]
        assert all(0 <= d < 7 for d in draws)
        assert len(set(draws)) == 7


class TestRandomTrees:
    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=500))
    def test_random_tree_is_tree(self, n, seed):
        assert is_tree(random_tree(n, seed))

    def test_cubic_m0_is_single_edge(self):
        # the k = 1 base of the single-edge cubic tree is P4
        assert random_expansion_base(1, 4, 3) == Graph(4, [(0, 1), (0, 2), (1, 3)])

    def test_cubic_m1_is_three_star(self):
        # the three-star with a pendant edge on each leaf
        t = random_expansion_base(1, 7, 0)
        assert degree_sequence(t) == (3, 2, 2, 2, 1, 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=40), st.integers(min_value=0, max_value=500))
    def test_cubic_degrees(self, size, seed):
        """At k = 1 a base is a cubic tree R plus one pendant edge on each
        leaf of R: a vertex of R has degree 3 and no leaf, or degree 2 and
        one leaf."""
        t = random_expansion_base(1, size, seed)
        assert is_tree(t) and is_expansion_base(t, 1)
        for v in range(t.n):
            ends = sum(1 for w in t.neighbors(v) if t.degree(w) == 1)
            assert (t.degree(v), ends) in ((1, 0), (2, 1), (3, 0))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=4, max_value=14),
        st.integers(min_value=0, max_value=200),
    )
    def test_expansion_base_validates(self, k, size, seed):
        base = random_expansion_base(k, size, seed)
        assert is_expansion_base(base, k)

    def test_expansion_base_honours_size(self):
        """Every draw lands in [size - 2, size]: the core grows until no step
        fits, and the pendants owed to core leaves are reserved up front."""
        for k in (1, 2, 3):
            for size in range(4, 80):
                for seed in range(60):
                    assert size - 2 <= random_expansion_base(k, size, seed).n <= size, (k, size, seed)
        sizes = [expand_base_tree(random_expansion_base(k, 1000, 1), k).n for k in (1, 2, 3)]
        assert sizes == [1665, 2135, 2727]

    def test_expansion_base_deterministic(self):
        assert random_expansion_base(2, 8, 5) == random_expansion_base(2, 8, 5)

    def test_expansion_base_guards(self):
        with pytest.raises(ValueError):
            random_expansion_base(0, 8, 0)
        with pytest.raises(ValueError):
            random_expansion_base(2, 3, 0)


class TestFreeTrees:
    def test_counts_match_classical_table(self):
        for n, want in enumerate(FREE_TREE_COUNTS, start=1):
            assert sum(1 for _ in free_trees(n)) == want

    def test_pairwise_non_isomorphic(self):
        for n in range(1, 10):
            canons = [tree_canon(t) for t in free_trees(n)]
            assert len(set(canons)) == len(canons)

    def test_all_outputs_are_trees(self):
        for t in free_trees_upto(9):
            assert is_tree(t)

    def test_stream_digest_upto_16(self):
        digest = hashlib.sha256()
        for t in free_trees_upto(16):
            digest.update((encode_graph6(t) + "\n").encode("ascii"))
        assert digest.hexdigest() == FREE_TREES_16_DIGEST


class TestPathsCycles:
    def test_stream(self):
        graphs = list(paths_and_cycles(5))
        # P2..P5 then C3..C5
        assert len(graphs) == 4 + 3
        assert graphs[0].num_edges == 1
        assert graphs[-1].num_edges == 5


class TestCorpusSpec:
    """Corpus sources as the CLI names them."""

    def test_identical_spec_identical_stream(self, capsys):
        streams = []
        for _ in range(2):
            assert main(["gen", "--gnp", "9,1/2,5", "--seed", "11"]) == 0
            streams.append(capsys.readouterr().out)
        assert len(streams[0].splitlines()) == 5
        assert streams[0] == streams[1]

    def test_file_round_trip(self, tmp_path, capsys):
        """gen --file reads a graph6 corpus back; a "#" line is skipped."""
        graphs = [random_gnp(7, Fraction(1, 2), s) for s in range(4)]
        path = tmp_path / "corpus.g6"
        path.write_text("# gnp(7, 1/2), seeds 0-3\n" + "".join(encode_graph6(g) + "\n" for g in graphs))
        assert main(["gen", "--file", str(path)]) == 0
        assert [parse_graph6(line) for line in capsys.readouterr().out.splitlines()] == graphs
