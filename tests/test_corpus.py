"""Corpus generators: determinism, counts, structural postconditions."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factorsmith.cli import main
from factorsmith.corpus import (
    _CHUNK,
    FREE_TREES_MAX_N,
    SplitMix64,
    enumerate_exhaustive,
    free_trees,
    free_trees_upto,
    paths_and_cycles,
    random_gnp,
    random_tree,
    random_tree_expansion,
)
from factorsmith.families import OTHER, P5, classify_component, cubic_expansion, tree_expansion
from factorsmith.graphs import Graph, encode_graph6, is_tree, mask_to_list, parse_graph6
from treeutil import degree_sequence, tree_canon

# number of free trees on n vertices, n = 1..16 (OEIS A000055)
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]

# sha256 of the graph6 lines ("...\n") of free_trees_upto(16): pins the order
# and the labels of all 32,508 trees
FREE_TREES_16_DIGEST = "285f00e70cc4e68b811c4d6cff3b3a9245f01f63b0f4693706f1d85b6d8e2738"

# sha256 of the graph6 lines ("...\n") of random_gnp(7, 1/2, s), s = 0..2999,
# the small-dense benchmark corpus: pins the draws, the construction and the
# encoder
SMALL_DENSE_DIGEST = "e37f98149618b53d1cc166aa0e63fd7126ab1d98a8b2eab5fa01b3e3d16f4fc6"

# sha256 of the graph6 lines of more random_gnp corpora, as (n, p, seed)
# calls, each taken from the generator that made one next_u64 call per pair
GNP_DIGESTS = {
    # the gnp-mid benchmark corpus and its held-out seeds
    "gnp-mid": (
        [(16, "1/4", s) for s in (*range(100), *range(50000, 50100))],
        "0c85ff4d1d38c014b3c74f17ff8687c81884b5bca6e1fb88d373b9f641ac0ba4",
    ),
    # each graph's pairs fill 4 or 5 chunks of SplitMix64.below, the last one
    # short by a different amount at each n
    "n60-70": (
        [(n, "1/3", s) for n in range(60, 71) for s in range(10)],
        "09a2c5ca76a772c63207317d7d3218d812f207685b3add23ce62c76fccd0b8a4",
    ),
    # the input of test_factors' TestScale
    "n3000": ([(3000, "12/3000", 1)], "115ec5c79b4bff67005affe65b02a08c2a3601b67bcede034999b8671529f413"),
}

# sha256 of the graph6 lines of enumerate_exhaustive(n), n = 1..6: pins the
# order of the labelled graphs, as the mask at each step sets it
EXHAUSTIVE_DIGESTS = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
    3: "0a6a62a5b967c500e7178c8cc7c7f12631566b64f5ae11dc03c2299880ea7a0d",
    4: "091c95b7e504710461925a57388a63bc5bd793f1659b097fb5c40978e34f34a1",
    5: "4ac9156f6af83aee1229b9eb4bd9cd3427c1fe25a0d0eb9f642eb054b3e857b0",
    6: "da12a4c9cfc2a185429437bc92a48813e68a9fc3a3732be2ac7efdf98a55795f",
}

# sha256 of the graph6 lines of random_tree(18, s), s < 100 then
# 50000 <= s < 50100: the trees-mid benchmark corpus and its held-out seeds
TREES_MID_DIGEST = "4c0061b69ae879d8bc115466398eb2c6138928a422f6e3c50c8307248117e8b4"

# sha256 of the graph6 lines of paths_and_cycles(12)
PATHS_CYCLES_12_DIGEST = "105b69d61d82b06af81daf121669fdb5f6ba063a7e49d5bd8b3e793263fcc75f"

# sha256 of the graph6 lines of random_tree_expansion(k, size, s) for
# k = 1, 2, 3, 2k+3 <= size < 40 and s < 10, in that nesting
TREE_EXPANSION_DIGEST = "9bb95b8ec43206597f39295d7132026a2205b98d6d1fe1fd5d86951972a1ed2d"


def _digest(graphs) -> str:
    digest = hashlib.sha256()
    for g in graphs:
        digest.update((encode_graph6(g) + "\n").encode("ascii"))
    return digest.hexdigest()


def _seed_of_first_draw(x: int) -> int:
    """The seed whose first SplitMix64 draw is x: the mixer's steps undone
    in reverse, each multiplier by its inverse mod 2^64 and each xor-shift
    by applying it again until every bit is fixed."""

    def unshift(y: int, shift: int) -> int:
        x = y
        for _ in range(64 // shift):
            x = y ^ (x >> shift)
        return x

    mask = (1 << 64) - 1
    x = unshift(x, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & mask
    x = unshift(x, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask
    return (unshift(x, 30) - 0x9E3779B97F4A7C15) & mask


class TestExhaustive:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 8), (4, 64)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_exhaustive(n)) == count

    def test_all_distinct(self):
        graphs = list(enumerate_exhaustive(3))
        assert len(set(graphs)) == 8

    @pytest.mark.parametrize("n", sorted(EXHAUSTIVE_DIGESTS))
    def test_stream_digest(self, n):
        assert _digest(enumerate_exhaustive(n)) == EXHAUSTIVE_DIGESTS[n]

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

    def test_small_dense_corpus_digest(self):
        assert _digest(random_gnp(7, Fraction(1, 2), s) for s in range(3000)) == SMALL_DENSE_DIGEST

    @pytest.mark.parametrize("name", sorted(GNP_DIGESTS))
    def test_corpus_digests(self, name):
        calls, want = GNP_DIGESTS[name]
        assert _digest(random_gnp(n, Fraction(p), s) for n, p, s in calls) == want

    def test_probability_validated(self):
        for p in (Fraction(3, 2), Fraction(-1, 3)):
            with pytest.raises(ValueError, match=rf"^edge probability must be in \[0,1\], got {p}$"):
                random_gnp(5, p, 0)

    def test_vertex_count_validated(self):
        """n < 0 is refused with Graph's message, after p is checked."""
        with pytest.raises(ValueError, match=r"^vertex count must be non-negative, got -1$"):
            random_gnp(-1, Fraction(1, 2), 0)
        with pytest.raises(ValueError, match="edge probability"):
            random_gnp(-1, Fraction(2), 0)

    @pytest.mark.parametrize("p", ["0", "1/3", "1/2", "2/7", "12/3000", "5/7", "1"])
    def test_keep_boundary(self, p):
        """A pair is kept exactly when its draw x has x * den < num * 2^64,
        also at the two draws around ceil(p * 2^64), where a floor limit
        would keep one draw too few.  Each seed is found by inverting the
        mixer.  -1 (at p = 0) and 2^64 (at p = 1) are not draws;
        test_extremes covers those two ratios."""
        p = Fraction(p)
        limit = -((-p.numerator << 64) // p.denominator)  # ceil(p * 2^64)
        for x in (limit - 1, limit):
            if not 0 <= x < 1 << 64:
                continue
            seed = _seed_of_first_draw(x)
            assert SplitMix64(seed).next_u64() == x
            keep = x * p.denominator < p.numerator << 64
            assert random_gnp(2, p, seed).num_edges == keep


class TestSplitMix:
    def test_reference_values(self):
        # seed 0 stream of the standard SplitMix64 mixer
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=(1 << 64) - 1))
    @pytest.mark.parametrize("limit", [0, 1, 1 << 63, (1 << 64) - 1, 1 << 64])
    @pytest.mark.parametrize("count", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_below_is_the_scalar_stream(self, count, limit, seed):
        """The lanes give the offsets that one next_u64 call per draw gives,
        and leave the state where those calls leave it."""
        lanes, scalar = SplitMix64(seed), SplitMix64(seed)
        assert lanes.below(count, limit) == [i for i in range(count) if scalar.next_u64() < limit]
        assert lanes.next_u64() == scalar.next_u64()

    def test_below_argument_errors(self):
        for count, limit in ((-1, 0), (1, -1), (1, (1 << 64) + 1)):
            with pytest.raises(ValueError):
                SplitMix64(0).below(count, limit)

    def test_randrange_bounds(self):
        rng = SplitMix64(42)
        draws = [rng.randrange(7) for _ in range(200)]
        assert all(0 <= d < 7 for d in draws)
        assert len(set(draws)) == 7

    def test_randrange_needs_positive_bound(self):
        for bound in (0, -1):
            with pytest.raises(ValueError, match="^bound must be positive$"):
                SplitMix64(0).randrange(bound)


class TestRandomTrees:
    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=500))
    def test_random_tree_is_tree(self, n, seed):
        assert is_tree(random_tree(n, seed))

    def test_trees_mid_corpus_digest(self):
        assert _digest(random_tree(18, s) for s in (*range(100), *range(50000, 50100))) == TREES_MID_DIGEST

    def test_expansion_grid_digest(self):
        grid = [(k, size, s) for k in (1, 2, 3) for size in range(2 * k + 3, 40) for s in range(10)]
        assert _digest(random_tree_expansion(*args) for args in grid) == TREE_EXPANSION_DIGEST

    def test_random_tree_needs_a_vertex(self):
        with pytest.raises(ValueError, match="^tree needs at least one vertex$"):
            random_tree(0, 0)
        assert random_tree(1, 0) == Graph(1)

    def test_cubic_m0_is_single_edge(self):
        # below 10 vertices the k = 1 core is the single edge, and its member P5
        for size in range(5, 10):
            assert random_tree_expansion(1, size, 3) == Graph(5, [(0, 2), (1, 2), (0, 3), (1, 4)])

    def test_cubic_m1_is_three_star(self):
        # the three-star core: one degree-3 vertex, three subdivisions, three pendants
        t = random_tree_expansion(1, 10, 0)
        assert degree_sequence(t) == (3, 2, 2, 2, 2, 2, 2, 1, 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=500))
    def test_cubic_degrees(self, size, seed):
        """At k = 1 the core is a cubic tree R: a vertex of R has degree 3
        and no leaf, or degree 2 and one leaf; every other vertex has
        degree 2 and two neighbours in R, or is a leaf."""
        t = random_tree_expansion(1, size, seed)
        assert is_tree(t)
        for v in range(t.n):
            ends = sum(1 for w in mask_to_list(t.adj[v]) if t.degree(w) == 1)
            assert (t.degree(v), ends) in ((1, 0), (2, 0), (2, 1), (3, 0))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=5, max_value=120),
        st.integers(min_value=0, max_value=200),
    )
    def test_expansion_base_validates(self, k, size, seed):
        """A drawn member classifies at its own k only: P5 at k = 1 below
        10 vertices, else the expansion tag of k."""
        assume(size >= 2 * k + 3)
        t = random_tree_expansion(k, size, seed)
        assert [j for j in range(1, 6) if classify_component(t, j) != OTHER] == [k]
        if k == 1:
            assert classify_component(t, 1) == (P5 if size < 10 else cubic_expansion())
        else:
            assert classify_component(t, k) == tree_expansion(k)

    def test_expansion_base_honours_size(self):
        """A draw has exactly |R|(2k+3)/2 <= size vertices, for the largest
        even |R| that fits."""
        for k in (1, 2, 3, 4):
            for size in range(2 * k + 3, 120):
                for seed in range(10):
                    t = random_tree_expansion(k, size, seed)
                    assert t.n == size // (2 * k + 3) * (2 * k + 3) <= size, (k, size, seed)
        sizes = [random_tree_expansion(k, 2000, 1).n for k in (1, 2, 3)]
        assert sizes == [2000, 1995, 1998]

    def test_expansion_base_deterministic(self):
        assert random_tree_expansion(2, 40, 5) == random_tree_expansion(2, 40, 5)
        assert random_tree_expansion(2, 40, 5) != random_tree_expansion(2, 40, 6)

    def test_expansion_base_guards(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
                random_tree_expansion(k, 8, 0)
        with pytest.raises(ValueError, match=r"^the smallest member of T\(5\) has 7 vertices, got size 6$"):
            random_tree_expansion(2, 6, 0)
        with pytest.raises(ValueError, match=r"^the smallest member of T\(3\) has 5 vertices, got size 4$"):
            random_tree_expansion(1, 4, 0)
        assert random_tree_expansion(2, 7, 0).n == 7


class TestFreeTrees:
    def test_counts_match_classical_table(self):
        for n, want in enumerate(FREE_TREE_COUNTS, start=1):
            assert sum(1 for _ in free_trees(n)) == want

    def test_needs_a_vertex(self):
        with pytest.raises(ValueError, match="^need n >= 1$"):
            next(free_trees(0))

    def test_pairwise_non_isomorphic(self):
        for n in range(1, 10):
            canons = [tree_canon(t) for t in free_trees(n)]
            assert len(set(canons)) == len(canons)

    def test_all_outputs_are_trees(self):
        for t in free_trees_upto(9):
            assert is_tree(t)

    def test_stream_digest_upto_16(self):
        assert _digest(free_trees_upto(16)) == FREE_TREES_16_DIGEST

    def test_size_guard(self):
        """free_trees_upto refuses a size past FREE_TREES_MAX_N on the call,
        before any tree is built; free_trees on its first draw."""
        assert FREE_TREES_MAX_N == 20
        free_trees_upto(FREE_TREES_MAX_N)
        for bad in (FREE_TREES_MAX_N + 1, 26, -1):
            with pytest.raises(ValueError, match=rf"^need 0 <= max_n <= 20, got {bad}$"):
                free_trees_upto(bad)
        with pytest.raises(ValueError, match="^free-tree enumeration supports n <= 20, got 21$"):
            next(free_trees(21))

    @pytest.mark.parametrize("command", ["gen", "verify"])
    def test_size_guard_exits_two(self, capsys, command):
        assert main([command, "--all-trees", str(FREE_TREES_MAX_N + 1)]) == 2
        assert capsys.readouterr() == ("", "error: need 0 <= max_n <= 20, got 21\n")


class TestPathsCycles:
    def test_stream(self):
        graphs = list(paths_and_cycles(5))
        # P2..P5 then C3..C5
        assert len(graphs) == 4 + 3
        assert graphs[0].num_edges == 1
        assert graphs[-1].num_edges == 5

    def test_stream_digest(self):
        assert _digest(paths_and_cycles(12)) == PATHS_CYCLES_12_DIGEST


# Every generator writes its neighbour masks itself, and Graph._from_masks
# takes them unchecked.  Rebuilding each graph through the validating
# constructor from its edges gives it back only if its masks are symmetric,
# loop-free and inside 0..n-1 (an edge past n - 1 raises).
GENERATED = {
    "free_trees_upto(12)": lambda: free_trees_upto(12),
    "enumerate_exhaustive(n<=5)": lambda: (g for n in range(1, 6) for g in enumerate_exhaustive(n)),
    "random_tree": lambda: (random_tree(n, s) for n in (1, 2, 3, 7, 18, 40) for s in range(20)),
    "random_tree_expansion": lambda: (
        random_tree_expansion(k, size, s) for k in (1, 2, 3) for size in (2 * k + 3, 30, 61) for s in range(10)
    ),
    "paths_and_cycles": lambda: paths_and_cycles(70),
    "random_gnp": lambda: (random_gnp(n, Fraction(1, 3), s) for n in (0, 1, 2, 7, 16, 70) for s in range(10)),
}


@pytest.mark.parametrize("name", GENERATED)
def test_generated_masks_are_valid(name):
    for g in GENERATED[name]():
        assert Graph(g.n, g.edges) == g


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
