"""The component families of the two theorems: one construction, one
recognizer and the classifier.

k alone fixes the target family, so the classifier takes k itself:
{P2, C3, P5} plus T(3) for k = 1, and the stars K1,1 .. K1,k plus T(2k+1)
for k >= 2.  The tag of a T(2k+1) member stays `cubic_expansion` at k = 1
and `tree_expansion` at k >= 2.

A member of T(2k+1) is fixed by its core tree R alone: a tree on >= 2
vertices whose degrees are all odd and <= 2k+1.  `expand_core_tree(R, k)`
subdivides every edge of R once and gives each vertex of R-degree d
(2k+1-d)/2 pendant edges, so each vertex of R reaches half-integral degree
k + 1/2 under the weighting 1 on pendant edges and 1/2 elsewhere.  At k = 1
R is a cubic tree.  `_expansion_shape` recognizes a member with degree and
adjacency tests alone (isomorphism invariant, no search).

P5 (from the single-edge core at k = 1) and the stars are not members of
T(2k+1); they are classified under their own tags, which leaves the family
unions unchanged.

`ComponentClass` is a NamedTuple, so it compares equal to the plain tuple
(kind, param) of the same fields.  It is plain data: a tag counts only where
`reducer.verify_certificate` re-classifies the component and gets the same
tag, so a malformed one such as a star with j = 0 never certifies.
"""

from __future__ import annotations

from typing import NamedTuple

from factorsmith.graphs import Graph, is_tree


class ComponentClass(NamedTuple):
    """Structural class of one factor component."""

    kind: str  # P2 | C3 | P5 | star | cubic_expansion | tree_expansion | other
    param: int | None = None

    @property
    def label(self) -> str:
        if self.kind == "star":
            return f"K1,{self.param}"
        if self.kind == "tree_expansion":
            return f"tree-expansion({self.param})"
        if self.kind == "cubic_expansion":
            return "cubic-expansion"
        return self.kind


P2 = ComponentClass("P2")
C3 = ComponentClass("C3")
P5 = ComponentClass("P5")
OTHER = ComponentClass("other")


def star(j: int) -> ComponentClass:
    return ComponentClass("star", j)


def cubic_expansion() -> ComponentClass:
    return ComponentClass("cubic_expansion")


def tree_expansion(k: int) -> ComponentClass:
    return ComponentClass("tree_expansion", k)


# --- the members of T(2k+1), k >= 1 -------------------------------------------


def expand_core_tree(r: Graph, k: int) -> Graph:
    """The member of T(2k+1) on the core tree r: subdivide every edge of r
    once, then give each vertex of r-degree d (2k+1-d)/2 pendant edges.

    r must be a tree on >= 2 vertices whose degrees are all odd and
    <= 2k+1.  The member has |r|(2k+3)/2 vertices: r's own at labels
    0..|r|-1, then the subdivision vertices in the order of `r.edges`, then
    the pendant ends.  At k = 1 the single edge P2 gives P5, which
    `classify_component` tags `P5`, not `cubic_expansion`.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if r.n < 2 or not is_tree(r):
        raise ValueError(f"core tree must be a tree on >= 2 vertices, got n = {r.n}, {r.num_edges} edges")
    deg = [m.bit_count() for m in r.adj]
    for v, d in enumerate(deg):
        if d % 2 == 0 or d > 2 * k + 1:
            raise ValueError(f"core tree degrees must be odd and <= {2 * k + 1}, vertex {v} has degree {d}")
    adj = list(r.adj)
    for u, v in r.edges:  # u - w - v, w the next label
        w = len(adj)
        adj[u] ^= 1 << v | 1 << w
        adj[v] ^= 1 << u | 1 << w
        adj.append(1 << u | 1 << v)
    for v, d in enumerate(deg):
        for _ in range((2 * k + 1 - d) // 2):
            adj[v] |= 1 << len(adj)
            adj.append(1 << v)
    return Graph._from_masks(len(adj), adj)


# --- the recognizer of T(2k+1), k >= 1 ---------------------------------------


def _expansion_shape(t: Graph, k: int) -> bool:
    """The shape of T(2k+1) in a tree t.  The core is every vertex of degree
    >= 3 or next to a leaf.  A member has >= 2 core vertices, at least one of
    degree >= 3, where no two core vertices are adjacent, every other
    non-leaf vertex has degree 2 and two core neighbours, and each core
    vertex b has leaves(b) + deg(b) = 2k+1.  At k = 1 a core vertex next to
    a leaf has degree 2, which is why the core is not simply the vertices of
    degree >= 3."""
    adj = t.adj
    deg = [m.bit_count() for m in adj]
    if max(deg) < 3:
        return False
    leaf_mask = sum(1 << v for v, d in enumerate(deg) if d == 1)
    core_mask = sum(1 << v for v, m in enumerate(adj) if deg[v] >= 3 or m & leaf_mask)
    if core_mask.bit_count() < 2:
        return False
    for v, m in enumerate(adj):
        if core_mask >> v & 1:
            if m & core_mask or (m & leaf_mask).bit_count() + deg[v] != 2 * k + 1:
                return False
        elif deg[v] != 1 and (deg[v] != 2 or m & ~core_mask):
            return False
    return True


# --- classification -----------------------------------------------------------


def classify_component(t: Graph, k: int) -> ComponentClass:
    """Structural class of a connected graph within the family k fixes:
    {P2, C3, P5} and T(3) for k = 1, stars up to K_{1,k} and T(2k+1) for
    k >= 2.  Every class but C3 is a tree, so one tree test comes first;
    the rest are degree and adjacency tests, with no isomorphism search."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not is_tree(t):
        return C3 if k == 1 and t.n == 3 and t.num_edges == 3 else OTHER
    max_deg = max(t.degree(v) for v in range(t.n))
    if k == 1:
        if t.n == 2:
            return P2
        if t.n == 5 and max_deg <= 2:
            return P5
    elif max_deg == t.n - 1 >= 1:
        return star(max_deg) if max_deg <= k else OTHER
    if _expansion_shape(t, k):
        return cubic_expansion() if k == 1 else tree_expansion(k)
    return OTHER
