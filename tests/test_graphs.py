"""Graph primitives, graph6 round trips, edge lists, DOT."""

import pickle
import re
import time
import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorsmith.corpus import enumerate_exhaustive, random_gnp
from factorsmith.graphs import (
    Graph,
    GraphFormatError,
    _graph6_size,
    degree2_chains,
    edge,
    encode_graph6,
    format_edge_list,
    is_tree,
    mask_to_list,
    parse_edge_list,
    parse_graph6,
    to_dot,
)
from treeutil import degree_sequence


def reference_graph6_size(n: int) -> str:
    """The shortest graph6 header for n vertices."""
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    return "~~" + "".join(chr((n >> shift & 63) + 63) for shift in (30, 24, 18, 12, 6, 0))


def reference_encode_graph6(g: Graph) -> str:
    """Independent straight-from-the-format encoder used as the oracle."""
    bits = ""
    for j in range(1, g.n):
        for i in range(j):
            bits += "1" if g.adj[i] >> j & 1 else "0"
    while len(bits) % 6:
        bits += "0"
    out = reference_graph6_size(g.n)
    for i in range(0, len(bits), 6):
        out += chr(int(bits[i : i + 6], 2) + 63)
    return out


def reference_parse_graph6(text: str) -> Graph:
    """Independent per-bit decoder used as the oracle: each set bit b of the
    body is the pair (b - j(j-1)/2, j) of the column j that holds it.  It
    raises the same GraphFormatError messages as `parse_graph6`."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise GraphFormatError("empty graph6 string")
    if s[0] in ":;":
        raise GraphFormatError("sparse6 input is not supported, only graph6")
    if s[0] == "&":
        raise GraphFormatError("digraph6 input is not supported, only graph6")
    bad = re.search(r"[^?-~]", s)
    if bad:
        raise GraphFormatError(f"invalid graph6 byte {bad.group()!r} at position {bad.start()}")
    prefix = 2 if s.startswith("~~") else 1 if s[0] == "~" else 0
    start = prefix + (1, 3, 6)[prefix]
    if len(s) < start:
        raise GraphFormatError(f"truncated graph6 header: need {start} bytes, got {len(s)}")
    n = 0
    for ch in s[prefix:start]:
        n = n << 6 | ord(ch) - 63
    if s[:start] != reference_graph6_size(n):
        raise GraphFormatError(f"graph6 header for n={n} is not the shortest one")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - start < nbytes:
        raise GraphFormatError(f"truncated graph6 body: need {nbytes} bytes for n={n}, got {len(s) - start}")
    if len(s) - start > nbytes:
        raise GraphFormatError(f"trailing data in graph6 string at position {start + nbytes}")
    edges = []
    for pos in range(start, len(s)):
        val, base = ord(s[pos]) - 63, 6 * (pos - start)
        for t in range(6):
            if val & 32 >> t:
                b = base + t
                if b >= nbits:
                    raise GraphFormatError("nonzero padding bits in graph6 body")
                j = (1 + isqrt(8 * b + 1)) // 2
                edges.append((b - j * (j - 1) // 2, j))
    return Graph(n, edges)


def graphs_strategy(max_n=12, min_n=0):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=min_n, max_value=max_n))
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


MALFORMED_GRAPH6 = [
    "",  # empty
    ":Bw",  # sparse6
    "&A_",  # digraph6
    "~~~",  # truncated long-form header
    "~??_?",  # n = 32 in a long-form header: not the shortest one
    "B",  # truncated body
    "Bw_",  # trailing data
    "B\x1f",  # out-of-range byte
    ">>graph6<<",  # header with no graph
]

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
        assert mask_to_list(star.adj[0]) == [1, 2, 3]
        assert degree_sequence(star) == (3, 1, 1, 1)

    def test_is_tree(self):
        """The empty graph is no tree; one vertex is."""
        assert not is_tree(Graph(0))
        assert is_tree(Graph(1)) and is_tree(P3)
        assert not is_tree(C3) and not is_tree(Graph(3, [(0, 1)]))

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

    def test_size_header_limit(self):
        """The six-group header ends at n = 2^36 - 1."""
        assert _graph6_size((1 << 36) - 1) == b"~~" + b"~" * 6
        with pytest.raises(ValueError, match=r"^graph6 supports n < 2\^36, got 68719476736$"):
            _graph6_size(1 << 36)

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

    @settings(max_examples=100, deadline=None)
    @given(graphs_strategy(max_n=70, min_n=50))
    def test_encoder_matches_reference_across_flush_and_long_header(self, g):
        """n = 57 is the first size whose window flushes before its last
        column, and n = 63 the first with the long header."""
        assert encode_graph6(g) == reference_encode_graph6(g)

    def test_decoder_matches_reference_exhaustive(self):
        """The mask decoder and the per-bit one agree on every labelled
        graph with n <= 5."""
        for n in range(6):
            for g in enumerate_exhaustive(n) if n else [Graph(0)]:
                text = encode_graph6(g)
                assert parse_graph6(text).adj == reference_parse_graph6(text).adj == g.adj

    def test_decoder_matches_reference_at_every_header_size(self):
        """Every one-byte header, n <= 62, and the first "~" one, n = 63,
        on a random and on the complete graph of each size."""
        for n in range(64):
            complete = Graph(n, [(i, j) for j in range(n) for i in range(j)])
            for g in (random_gnp(n, Fraction(1, 2), n), complete):
                text = encode_graph6(g)
                assert text[0] == ("~" if n == 63 else chr(n + 63))
                assert parse_graph6(text).adj == reference_parse_graph6(text).adj == g.adj

    @pytest.mark.parametrize("n,start,nbytes", [(62, 1, 316), (63, 4, 326)])
    def test_body_errors_on_both_sides_of_the_long_header(self, n, start, nbytes):
        """The last one-byte header and the first "~" one: a body one byte
        short, one byte long, or with a padding bit set keeps its message,
        and the per-bit decoder's."""
        text = encode_graph6(random_gnp(n, Fraction(1, 2), n))
        assert len(text) == start + nbytes
        for bad, message in [
            (text[:-1], f"truncated graph6 body: need {nbytes} bytes for n={n}, got {nbytes - 1}"),
            (text + "?", f"trailing data in graph6 string at position {start + nbytes}"),
            (text[:-1] + chr(ord(text[-1]) + 1), "nonzero padding bits in graph6 body"),
        ]:
            for parse in (parse_graph6, reference_parse_graph6):
                with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
                    parse(bad)

    @settings(max_examples=100, deadline=None)
    @given(graphs_strategy(max_n=70))
    def test_decoder_matches_reference_random(self, g):
        """Up to n = 70, across the long-form header that starts at 63."""
        text = encode_graph6(g)
        assert parse_graph6(text).adj == reference_parse_graph6(text).adj == g.adj

    def test_dense_parse_builds_no_edge_list(self):
        """K1500 has 1,124,250 edges; its masks take about 0.4 MB, and the
        parse peaks far below what a list of its pairs would take."""
        n = 1500
        text = reference_graph6_size(n) + "~" * (n * (n - 1) // 12)
        tracemalloc.start()
        try:
            g = parse_graph6(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        full = (1 << n) - 1
        assert g.n == n and all(m == full ^ 1 << v for v, m in enumerate(g.adj))
        assert peak < 8 << 20

    def test_header_prefix_stripped(self):
        assert parse_graph6(">>graph6<<A_") == K2

    @pytest.mark.parametrize("bad", MALFORMED_GRAPH6)
    def test_malformed_rejected(self, bad):
        """Each malformed input keeps the error the per-bit decoder gives."""
        with pytest.raises(GraphFormatError) as exc:
            parse_graph6(bad)
        with pytest.raises(GraphFormatError) as ref:
            reference_parse_graph6(bad)
        assert str(exc.value) == str(ref.value)

    def test_nonzero_padding_rejected(self):
        """n=2 needs 1 bit, so the remaining 5 padding bits must be zero;
        likewise the last padding bit of n = 3, 5 and 65."""
        for bad in ["A" + chr(63 + 0b111111), "Bx", "Do~", "~?@@" + "?" * 346 + "@"]:
            for parse in (parse_graph6, reference_parse_graph6):
                with pytest.raises(GraphFormatError, match="^nonzero padding bits in graph6 body$"):
                    parse(bad)

    def test_long_header_round_trip(self):
        text = "~??~" + "?" * 326  # 63 vertices, 1953 bits
        assert encode_graph6(Graph(63)) == text
        assert parse_graph6(text) == Graph(63)

    @pytest.mark.parametrize("n", [56, 57, 63, 64, 100, 130, 200])
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
        raises GraphFormatError; either way as the per-bit decoder does."""
        try:
            g = parse_graph6(text)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError, match=f"^{re.escape(str(exc))}$"):
                reference_parse_graph6(text)
            return
        assert encode_graph6(g) == text.strip()
        assert reference_parse_graph6(text) == g


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
                for a, _interior, b in degree2_chains([mask_to_list(g.adj[v]) for v in range(n)]):
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
