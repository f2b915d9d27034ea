"""Bitset-backed simple graphs, bounded multigraphs, and text formats.

Vertex ids are dense integers 0..n-1.  Adjacency is one int bitmask per
vertex, which keeps exhaustive corpus sweeps cheap.  Graphs are immutable
after construction and safe to share across workers.
"""

from __future__ import annotations

from typing import Iterable, Iterator

GRAPH6_MAX = 62


class GraphFormatError(ValueError):
    """Malformed graph6 or edge-list input."""


def edge(u: int, v: int) -> tuple[int, int]:
    """Normalised undirected edge key."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph: no loops, no parallel edges."""

    __slots__ = ("n", "_adj", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj = [0] * n
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            seen.add(edge(u, v))
        for u, v in seen:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self._edges = tuple(sorted(seen))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def adj(self) -> tuple[int, ...]:
        """Per-vertex neighbour bitmasks."""
        return self._adj

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        mask = self._adj[v]
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((m.bit_count() for m in self._adj), reverse=True))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self._edges)})"


class MultiGraph:
    """Loopless multigraph with edge multiplicity at most 2."""

    __slots__ = ("n", "_groups")

    def __init__(self, n: int, groups: Iterable[tuple[int, int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        norm: dict[tuple[int, int], int] = {}
        for u, v, mult in groups:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if mult not in (1, 2):
                raise ValueError(f"multiplicity must be 1 or 2, got {mult}")
            key = edge(u, v)
            if key in norm:
                raise ValueError(f"duplicate edge group {key}")
            norm[key] = mult
        self.n = n
        self._groups = tuple(sorted((u, v, m) for (u, v), m in norm.items()))

    @property
    def groups(self) -> tuple[tuple[int, int, int], ...]:
        """Sorted (u, v, multiplicity) triples, u < v."""
        return self._groups

    @property
    def edge_copy_count(self) -> int:
        return sum(m for _, _, m in self._groups)

    def degree(self, v: int) -> int:
        return sum(m for u, w, m in self._groups if u == v or w == v)

    def degrees(self) -> list[int]:
        out = [0] * self.n
        for u, v, m in self._groups:
            out[u] += m
            out[v] += m
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiGraph) and self.n == other.n and self._groups == other._groups

    def __hash__(self) -> int:
        return hash((self.n, self._groups))

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, groups={list(self._groups)})"


def double(g: Graph) -> MultiGraph:
    """Replace every edge by two parallel copies; degrees double vertex-wise."""
    return MultiGraph(g.n, ((u, v, 2) for u, v in g.edges))


# --- graph6 (short form) ---------------------------------------------------
#
# Header byte n+63 for n <= 62, then the upper triangle of the adjacency
# matrix in column-major order (columns 1..n-1, rows 0..j-1), packed into
# 6-bit groups, each +63, zero-padded to a multiple of 6 bits.


def _g6_pairs(n: int) -> Iterator[tuple[int, int]]:
    for j in range(1, n):
        for i in range(j):
            yield i, j


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise GraphFormatError("empty graph6 string")
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if s.startswith(":") or s.startswith(";"):
        raise GraphFormatError("sparse6 input is not supported, only short-form graph6")
    if s.startswith("&"):
        raise GraphFormatError("digraph6 input is not supported, only short-form graph6")
    header = ord(s[0])
    if header == 126:
        raise GraphFormatError("long-form graph6 (n > 62) is not supported")
    if not (63 <= header <= 63 + GRAPH6_MAX):
        raise GraphFormatError(f"invalid graph6 header byte {s[0]!r} at position 0")
    n = header - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = s[1:]
    if len(body) < nbytes:
        raise GraphFormatError(
            f"truncated graph6 body: need {nbytes} bytes for n={n}, got {len(body)}"
        )
    if len(body) > nbytes:
        raise GraphFormatError(
            f"trailing data in graph6 string at position {1 + nbytes}"
        )
    bits: list[int] = []
    for pos, ch in enumerate(body):
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise GraphFormatError(f"invalid graph6 byte {ch!r} at position {pos + 1}")
        for shift in range(5, -1, -1):
            bits.append(val >> shift & 1)
    if any(bits[nbits:]):
        raise GraphFormatError("nonzero padding bits in graph6 body")
    edges = [(i, j) for (i, j), b in zip(_g6_pairs(n), bits) if b]
    return Graph(n, edges)


def encode_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX:
        raise ValueError(f"short-form graph6 supports n <= {GRAPH6_MAX}, got {g.n}")
    out = [chr(g.n + 63)]
    acc = 0
    filled = 0
    for i, j in _g6_pairs(g.n):
        acc = acc << 1 | (1 if g.has_edge(i, j) else 0)
        filled += 1
        if filled == 6:
            out.append(chr(acc + 63))
            acc = 0
            filled = 0
    if filled:
        out.append(chr((acc << (6 - filled)) + 63))
    return "".join(out)


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
    return Graph(n, pairs)


def format_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# --- DOT output -------------------------------------------------------------


def to_dot(g: Graph, highlight=None) -> str:
    """Render to DOT.  `highlight` may carry .red / .blue edge sets (a colored
    factor); highlighted edges are drawn red/blue, the rest dashed gray."""
    red: frozenset = frozenset()
    blue: frozenset = frozenset()
    if highlight is not None:
        red = frozenset(edge(u, v) for u, v in highlight.red)
        blue = frozenset(edge(u, v) for u, v in highlight.blue)
        all_edges = set(g.edges)
        for e in red | blue:
            if e not in all_edges:
                raise ValueError(f"highlighted edge {e} is not an edge of the graph")
    lines = ["graph G {", "  node [shape=circle];"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in g.edges:
        e = (u, v)
        if e in red:
            lines.append(f"  {u} -- {v} [color=red, penwidth=2];")
        elif e in blue:
            lines.append(f"  {u} -- {v} [color=blue];")
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
        comps.append(_mask_to_list(comp))
    return comps


def _mask_to_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def degree2_chains(nbrs: list[list[int]]) -> list[tuple[int, list[int], int]]:
    """Maximal chains (a, interior, b) between two vertices of degree other
    than 2, through interior vertices of degree 2, from ascending neighbour
    lists.  Each chain is listed once, from the end found first in index
    order; bare edges between two such vertices come with an empty interior.
    Every degree-2 vertex outside a cycle component is interior to exactly
    one chain, and a leaf-to-leaf chain is a whole path component."""
    seen: set[tuple[int, int, tuple[int, ...]]] = set()
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
            key = (min(a, cur), max(a, cur), tuple(sorted(interior)))
            if key not in seen:
                seen.add(key)
                out.append((a, interior, cur))
    return out


def is_tree(g: Graph) -> bool:
    if g.n == 0:
        return False
    return g.num_edges == g.n - 1 and len(connected_components(g.n, g.adj)) == 1


def is_path_graph(g: Graph) -> bool:
    if not is_tree(g):
        return False
    return all(g.degree(v) <= 2 for v in range(g.n))
