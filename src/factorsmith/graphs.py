"""Bitset-backed simple graphs and their text formats.

Vertex ids are dense integers 0..n-1.  Adjacency is one int bitmask per
vertex, and those masks are the only stored form: the edge list, the edge
count and the graph6 body are all read off them.  That keeps exhaustive
corpus sweeps cheap.  Graphs are immutable after construction and safe to
share across workers.
"""

from __future__ import annotations

import re
from binascii import a2b_base64, b2a_base64
from typing import Iterable


class GraphFormatError(ValueError):
    """Malformed graph6 or edge-list input."""


def edge(u: int, v: int) -> tuple[int, int]:
    """Normalised undirected edge key."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph: no loops, no parallel edges.  Only `n` and the
    neighbour bitmasks are stored; `edges` is derived from the masks on each
    access, sorted with u < v, in O(n + m)."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def _from_masks(cls, n: int, adj: list[int]) -> Graph:
        """The graph with these symmetric, loop-free masks, taken unchecked."""
        g = object.__new__(cls)
        g.n = n
        g._adj = tuple(adj)
        return g

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted (u, v) pairs with u < v: each vertex's neighbours above it."""
        return tuple((u, v) for u, m in enumerate(self._adj) for v in mask_to_list(m >> u + 1 << u + 1))

    @property
    def adj(self) -> tuple[int, ...]:
        """Per-vertex neighbour bitmasks."""
        return self._adj

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


# --- graph6 -------------------------------------------------------------------
#
# McKay's graph6 (formats.txt).  Every byte is a 6-bit group plus 63.  The
# vertex count comes first: one group for n <= 62, "~" and three groups for
# n <= 258047, "~~" and six groups above that.  Only the shortest header is
# accepted, so encode(parse(s)) == s; a one-group header always is one, so
# only a "~" header is compared with the encoder's.  The body is the upper
# triangle of the adjacency matrix column by column: pair (i, j), i < j, is
# bit j(j-1)/2 + i, packed six bits a byte from the most significant bit and
# zero-padded.  base64 cuts a bit stream into the same 6-bit groups.  The
# encoder writes each column's j bits into a window that it flushes to bytes
# and base64-encodes; the decoder mirrors it: it maps the body back to
# base64, decodes it and bit-reverses each byte, then reads each column's j
# bits off a window refilled from those bytes.  Both are linear in the body,
# with one mask update per edge on top when reading, and no edge list is
# built.

_G6_INVALID = re.compile(r"[^?-~]")
_REVERSE_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_BASE64_TO_G6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_G6_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_FLUSH_BITS = 1536  # 64 groups of 24 bits: graphs with n <= 56 never flush


def _graph6_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        prefix, groups = b"~", 3
    elif n < 1 << 36:
        prefix, groups = b"~~", 6
    else:
        raise ValueError(f"graph6 supports n < 2^36, got {n}")
    return prefix + bytes(63 + (n >> 6 * i & 63) for i in reversed(range(groups)))


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise GraphFormatError("empty graph6 string")
    if s[0] in ":;":
        raise GraphFormatError("sparse6 input is not supported, only graph6")
    if s[0] == "&":
        raise GraphFormatError("digraph6 input is not supported, only graph6")
    bad = _G6_INVALID.search(s)
    if bad:
        raise GraphFormatError(f"invalid graph6 byte {bad.group()!r} at position {bad.start()}")
    raw = s.encode("ascii")
    if raw[0] != 126:  # one byte holds n <= 62, and is always the shortest header
        n, start = raw[0] - 63, 1
    else:
        prefix = 2 if raw.startswith(b"~~") else 1
        start = 4 * prefix
        if len(raw) < start:
            raise GraphFormatError(f"truncated graph6 header: need {start} bytes, got {len(raw)}")
        n = 0
        for byte in raw[prefix:start]:
            n = n << 6 | byte - 63
        if raw[:start] != _graph6_size(n):
            raise GraphFormatError(f"graph6 header for n={n} is not the shortest one")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(raw) - start < nbytes:
        raise GraphFormatError(
            f"truncated graph6 body: need {nbytes} bytes for n={n}, got {len(raw) - start}"
        )
    if len(raw) - start > nbytes:
        raise GraphFormatError(f"trailing data in graph6 string at position {start + nbytes}")
    # the padding is the low 6*nbytes - nbits bits of the last group
    if nbits and (raw[-1] - 63) & (1 << 6 * nbytes - nbits) - 1:
        raise GraphFormatError("nonzero padding bits in graph6 body")
    body = raw[start:].translate(_G6_TO_BASE64)
    stream = a2b_base64(body + b"A" * (-len(body) & 3)).translate(_REVERSE_BITS)
    return Graph._from_masks(n, _masks_from_columns(n, stream))


def _masks_from_columns(n: int, stream: bytes) -> list[int]:
    """Neighbour masks from the body's bits, read from bit 0 of `stream`
    taken as little-endian: column j, the j bits after the first j(j-1)/2,
    is j's lower neighbours, and each of them gets bit j in its own mask."""
    adj = [0] * n
    window = held = pos = 0
    for j in range(1, n):
        if held < j:  # refill at least j bits, so each shift costs O(j)
            step = (j >> 3) + 64
            window |= int.from_bytes(stream[pos : pos + step], "little") << held
            held += 8 * step
            pos += step
        col = window & (1 << j) - 1
        window >>= j
        held -= j
        adj[j] = col
        bit = 1 << j
        while col:
            i = col.bit_length() - 1
            adj[i] |= bit
            col ^= 1 << i
    return adj


def encode_graph6(g: Graph) -> str:
    # Column j's lower neighbours, put at bit `held` of a window, give the
    # body's bit string read from bit 0.  Once the window holds
    # _FLUSH_BITS bits, its whole 3-byte groups move to `out`, so each column
    # costs O(j + _FLUSH_BITS) and no column copies the body built so far.
    # Reversing each little-endian byte puts the bits in stream order, most
    # significant bit first, and base64 cuts such a stream into the same
    # 6-bit groups that graph6 does; a flush ends on a group boundary of both.
    out = bytearray()
    window = held = 0
    for j, m in enumerate(g.adj):
        if held >= _FLUSH_BITS:
            cut = held - held % 24
            out += (window & (1 << cut) - 1).to_bytes(cut >> 3, "little")
            window >>= cut
            held -= cut
        window |= (m & (1 << j) - 1) << held
        held += j
    out += window.to_bytes(-(-held // 24) * 3, "little")
    nbits = g.n * (g.n - 1) // 2
    raw = out.translate(_REVERSE_BITS)
    body = b2a_base64(raw, newline=False).translate(_BASE64_TO_G6)[: (nbits + 5) // 6]
    return (_graph6_size(g.n) + body).decode("ascii")


# --- plain edge-list text ---------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" lines, optional header line "n <count>"."""
    n: int | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] == "n":
            if n is not None or pairs:
                raise GraphFormatError(f"line {lineno}: header must be the first line")
            if len(tok) != 2:
                raise GraphFormatError(f"line {lineno}: header must be 'n <count>'")
            try:
                n = int(tok[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad vertex count {tok[1]!r}") from None
            if n < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex count")
            continue
        if len(tok) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tok[0]), int(tok[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex id")
        pairs.append((u, v))
    if n is None:
        n = 1 + max((max(u, v) for u, v in pairs), default=-1)
    for u, v in pairs:
        if u >= n or v >= n:
            raise GraphFormatError(f"vertex id {max(u, v)} out of range for n={n}")
    # A header may name far more vertices than the text holds, and Graph
    # stores an entry per vertex.
    try:
        return Graph(n, pairs)
    except (MemoryError, OverflowError):
        raise GraphFormatError(f"graph too large: n={n} vertices do not fit in memory") from None


def format_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# --- DOT output -------------------------------------------------------------


def to_dot(g: Graph, highlight: Iterable[tuple[int, int]] | None = None) -> str:
    """Render to DOT.  With `highlight` (edges of g, e.g. a factor), those
    edges are drawn red and the rest dashed gray."""
    edges = g.edges
    marked: set[tuple[int, int]] = set()
    if highlight is not None:
        marked = {edge(u, v) for u, v in highlight}
        foreign = marked - set(edges)
        if foreign:
            raise ValueError(f"highlighted edge {min(foreign)} is not an edge of the graph")
    lines = ["graph G {", "  node [shape=circle];"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in edges:
        if (u, v) in marked:
            lines.append(f"  {u} -- {v} [color=red, penwidth=2];")
        elif highlight is not None:
            lines.append(f"  {u} -- {v} [style=dashed, color=gray];")
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- small structural helpers shared across modules -------------------------


def connected_components(n: int, adj: tuple[int, ...] | list[int]) -> list[list[int]]:
    """Components as sorted vertex lists, from bitmask adjacency."""
    seen = 0
    comps: list[list[int]] = []
    for start in range(n):
        if seen >> start & 1:
            continue
        frontier = 1 << start
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~comp
        seen |= comp
        comps.append(mask_to_list(comp))
    return comps


def leaf_centre(adj: tuple[int, ...] | list[int], most: int) -> tuple[int, int | None]:
    """(leaves, v) from bitmask adjacency: the bitmask of the vertices of
    degree exactly 1, and the first vertex with more than `most` of them as
    neighbours, or None.  Only the leaves' neighbours are tried, in
    ascending order."""
    leaves = centres = 0
    for v, m in enumerate(adj):
        if m.bit_count() == 1:
            leaves |= 1 << v
            centres |= m
    while centres:
        low = centres & -centres
        v = low.bit_length() - 1
        if (adj[v] & leaves).bit_count() > most:
            return leaves, v
        centres ^= low
    return leaves, None


def mask_to_list(mask: int) -> list[int]:
    """The set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def degree2_chains(nbrs: list[list[int]]) -> list[tuple[int, list[int], int]]:
    """Maximal chains (a, interior, b) between two vertices of degree other
    than 2, through interior vertices of degree 2, from ascending neighbour
    lists.  Each chain is walked from both ends and listed once: from its
    smaller end, so a < b, or if a == b toward a's smaller neighbour.  Bare
    edges come with an empty interior.  Every degree-2 vertex outside a
    cycle component is interior to exactly one chain, and a leaf-to-leaf
    chain is a whole path component."""
    out = []
    for a, nbrs_a in enumerate(nbrs):
        if len(nbrs_a) == 2:
            continue
        for first in nbrs_a:
            prev, cur = a, first
            interior: list[int] = []
            while len(nbrs[cur]) == 2:
                interior.append(cur)
                w0, w1 = nbrs[cur]
                prev, cur = cur, w1 if w0 == prev else w0
            if a < cur or a == cur and first < interior[-1]:
                out.append((a, interior, cur))
    return out


def is_tree(g: Graph) -> bool:
    if g.n == 0:
        return False
    return g.num_edges == g.n - 1 and len(connected_components(g.n, g.adj)) == 1
