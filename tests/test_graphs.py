"""Graph primitives, graph6 round trips, edge lists, DOT."""

import pickle
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorsmith.corpus import enumerate_exhaustive, random_gnp
from factorsmith.graphs import (
    Graph,
    GraphFormatError,
    degree2_chains,
    edge,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
    to_dot,
)
from treeutil import degree_sequence


def reference_encode_graph6(g: Graph) -> str:
    """Independent straight-from-the-format encoder used as the oracle."""
    bits = ""
    for j in range(1, g.n):
        for i in range(j):
            bits += "1" if g.adj[i] >> j & 1 else "0"
    while len(bits) % 6:
        bits += "0"
    if g.n <= 62:
        out = chr(g.n + 63)
    elif g.n <= 258047:
        out = "~" + "".join(chr((g.n >> shift & 63) + 63) for shift in (12, 6, 0))
    else:
        out = "~~" + "".join(chr((g.n >> shift & 63) + 63) for shift in (30, 24, 18, 12, 6, 0))
    for i in range(0, len(bits), 6):
        out += chr(int(bits[i : i + 6], 2) + 63)
    return out


def graphs_strategy(max_n=12):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        return Graph(n, (p for i, p in enumerate(pairs) if mask >> i & 1))

    return build()


def pair_lists_strategy(max_n=12):
    """(n, pairs): vertex pairs with repeats, in both orientations."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        if n < 2:
            return n, []
        vertex = st.integers(min_value=0, max_value=n - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), max_size=3 * n))
        repeats = draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []
        flipped = [(v, u) for u, v in repeats]
        return n, draw(st.permutations(pairs + repeats + flipped))

    return build()


K2 = Graph(2, [(0, 1)])
P3 = Graph(3, [(0, 1), (1, 2)])
C3 = Graph(3, [(0, 1), (1, 2), (0, 2)])


class TestGraph:
    def test_dedupes_parallel_edges(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.num_edges == 1

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])
        with pytest.raises(ValueError) as exc:
            Graph(-1)
        assert str(exc.value) == "vertex count must be non-negative, got -1"
        # pairs are checked in input order, so the message names the first bad one
        with pytest.raises(ValueError) as exc:
            Graph(3, [(0, 5), (1, 1)])
        assert str(exc.value) == "edge (0,5) outside vertex range 0..2"
        with pytest.raises(ValueError) as exc:
            Graph(3, [(1, 1), (0, 5)])
        assert str(exc.value) == "self-loop at vertex 1"

    @settings(max_examples=200)
    @given(pair_lists_strategy(max_n=12))
    def test_edges_derived_from_masks(self, case):
        """Repeats and reversed pairs collapse; the derived edge list, edge
        count and graph6 text agree with the pairs given."""
        n, pairs = case
        g = Graph(n, pairs)
        assert g.edges == tuple(sorted({edge(u, v) for u, v in pairs}))
        assert g.num_edges == len(g.edges)
        assert parse_graph6(encode_graph6(g)) == g
        twin = Graph(n, list(reversed(g.edges)))
        assert twin.adj == g.adj and twin == g and hash(twin) == hash(g)

    def test_degrees_and_neighbors(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert star.degree(0) == 3
        assert list(star.neighbors(0)) == [1, 2, 3]
        assert degree_sequence(star) == (3, 1, 1, 1)

    def test_masks_are_the_only_stored_form(self):
        """A parsed gnp(7, 1/2) graph holds its n and its masks, nothing more."""
        assert Graph.__slots__ == ("n", "_adj")
        lines = [encode_graph6(random_gnp(7, Fraction(1, 2), s)) for s in range(3000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graphs = [parse_graph6(line) for line in lines]
            per_graph = (tracemalloc.get_traced_memory()[0] - before) / len(graphs)
        finally:
            tracemalloc.stop()
        assert per_graph <= 200

    @pytest.mark.parametrize("g", [Graph(0), parse_graph6("Fh_GG"), random_gnp(100, Fraction(1, 2), 100)])
    def test_pickle_round_trip(self, g):
        """`verify --jobs` hands each worker its Graph through pickle."""
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy.edges == g.edges


class TestGraph6:
    @pytest.mark.parametrize(
        "text,graph",
        [("A_", K2), ("Bw", C3), ("@", Graph(1))],
    )
    def test_parse_known(self, text, graph):
        assert parse_graph6(text) == graph

    @pytest.mark.parametrize(
        "graph,text",
        [(K2, "A_"), (P3, "Bg"), (Graph(1), "@")],
    )
    def test_encode_known(self, graph, text):
        assert encode_graph6(graph) == text
        assert reference_encode_graph6(graph) == text

    def test_round_trip_exhaustive_small(self):
        for n in range(1, 5):
            for g in enumerate_exhaustive(n):
                assert parse_graph6(encode_graph6(g)) == g
                assert encode_graph6(g) == reference_encode_graph6(g)

    @settings(max_examples=200)
    @given(graphs_strategy(max_n=14))
    def test_round_trip_random(self, g):
        if g.n == 0:
            return
        assert parse_graph6(encode_graph6(g)) == g
        assert encode_graph6(g) == reference_encode_graph6(g)

    def test_header_prefix_stripped(self):
        assert parse_graph6(">>graph6<<A_") == K2

    @pytest.mark.parametrize(
        "bad",
        [
            "",  # empty
            ":Bw",  # sparse6
            "&A_",  # digraph6
            "~~~",  # truncated long-form header
            "~??_?",  # n = 32 in a long-form header: not the shortest one
            "B",  # truncated body
            "Bw_",  # trailing data
            "B\x1f",  # out-of-range byte
            ">>graph6<<",  # header with no graph
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(GraphFormatError):
            parse_graph6(bad)

    def test_nonzero_padding_rejected(self):
        # n=2 needs 1 bit; the remaining 5 padding bits must be zero
        with pytest.raises(GraphFormatError):
            parse_graph6("A" + chr(63 + 0b111111))

    def test_long_header_round_trip(self):
        text = "~??~" + "?" * 326  # 63 vertices, 1953 bits
        assert encode_graph6(Graph(63)) == text
        assert parse_graph6(text) == Graph(63)

    @pytest.mark.parametrize("n", [63, 64, 100, 130])
    def test_long_form_matches_reference(self, n):
        g = random_gnp(n, Fraction(1, 2), n)
        assert encode_graph6(g) == reference_encode_graph6(g)
        assert parse_graph6(encode_graph6(g)) == g

    @pytest.mark.parametrize("header", ["~}~~", "~~???~??"], ids=["n=258047", "n=258048"])
    def test_header_only_is_truncated(self, header):
        """The body size is checked before anything is built: the largest
        three-group and the smallest six-group size, with no body."""
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match="truncated"):
                parse_graph6(header)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_long_cycle_round_trip_fast(self):
        n = 5000
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        t0 = time.perf_counter()
        text = encode_graph6(g)
        assert parse_graph6(text) == g
        assert time.perf_counter() - t0 < 1.0
        assert text.startswith("~@MG")

    @settings(max_examples=300)
    @given(st.text(alphabet="?@AB_o~}:&\x1f", max_size=12))
    def test_fuzz_only_format_errors(self, text):
        """Any input either parses to a graph that re-encodes to it, or
        raises GraphFormatError."""
        try:
            g = parse_graph6(text)
        except GraphFormatError:
            return
        assert encode_graph6(g) == text.strip()


class TestEdgeList:
    def test_basic(self):
        assert parse_edge_list("n 3\n0 1\n1 2") == P3

    def test_duplicate_collapsed(self):
        assert parse_edge_list("n 2\n0 1\n1 0") == K2

    def test_isolated_preserved_via_header(self):
        g = parse_edge_list("n 4\n0 1")
        assert g.n == 4 and g.num_edges == 1

    def test_no_header_infers_n(self):
        assert parse_edge_list("0 1\n1 2") == P3

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("n 2\n1 1")

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("n 2\n0 5")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\nn 3", "line 2: header must be the first line"),
            ("n x", "line 1: bad vertex count 'x'"),
            ("n -1", "line 1: negative vertex count"),
            ("-1 2", "line 1: negative vertex id"),
        ],
        ids=["late-header", "n-x", "n-negative", "negative-id"],
    )
    def test_malformed_rejected(self, text, message):
        with pytest.raises(GraphFormatError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message

    def test_round_trip(self):
        for n in range(1, 5):
            for g in enumerate_exhaustive(n):
                assert parse_edge_list(format_edge_list(g)) == g

    @settings(max_examples=300)
    @given(st.lists(st.text(alphabet="n 0129#-x\t\r", max_size=6), max_size=5).map("\n".join))
    def test_fuzz_only_format_errors(self, text):
        """Any input either raises GraphFormatError or parses to a graph
        that format_edge_list round-trips.  Lines of at most 6 characters
        keep every vertex id and count below 10^4."""
        try:
            g = parse_edge_list(text)
        except GraphFormatError:
            return
        assert parse_edge_list(format_edge_list(g)) == g


class TestDegree2Chains:
    def test_two_ended_chain_starts_at_its_smaller_end(self):
        """The branch-chain rewrite relies on this: every chain (a, interior,
        b) with a != b has a < b, over every labelled graph with n <= 6."""
        chains = 0
        for n in range(1, 7):
            for g in enumerate_exhaustive(n):
                for a, _interior, b in degree2_chains([g.neighbors(v) for v in range(n)]):
                    chains += 1
                    assert a == b or a < b, (encode_graph6(g), a, b)
        assert chains == 187623


class TestDot:
    def test_plain(self):
        out = to_dot(K2)
        assert "0 -- 1" in out and out.startswith("graph G {")

    def test_colored_p5(self):
        """Highlighted edges, given in either orientation, are drawn red and
        the rest dashed gray; an empty highlight marks every edge gray."""
        p5 = Graph(5, [(i, i + 1) for i in range(4)])
        lines = to_dot(p5, highlight={(1, 0), (3, 4)}).splitlines()
        assert [line for line in lines if "--" in line] == [
            "  0 -- 1 [color=red, penwidth=2];",
            "  1 -- 2 [style=dashed, color=gray];",
            "  2 -- 3 [style=dashed, color=gray];",
            "  3 -- 4 [color=red, penwidth=2];",
        ]
        assert to_dot(p5, highlight=()).count("style=dashed, color=gray") == 4

    def test_highlight_foreign_edge_rejected(self):
        with pytest.raises(ValueError):
            to_dot(P3, highlight={(0, 2)})
