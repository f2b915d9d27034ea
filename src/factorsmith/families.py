"""The component families of the two theorems: one recognizer, one
generator and the classifier.

k alone fixes the target family, so the classifier takes k itself:
{P2, C3, P5} plus T(3) for k = 1, and the stars K1,1 .. K1,k plus T(2k+1)
for k >= 2.  The tag of a T(2k+1) member stays `cubic_expansion` at k = 1
and `tree_expansion` at k >= 2.

`is_tree_expansion(t, k)` recognizes T(2k+1) at every k >= 1 with a tree
test, then degree and adjacency tests alone (isomorphism invariant, no
search).
`expand_base_tree(base, k)` builds the members the way the paper does, at
every k >= 1: take a tree whose non-leaf core has odd degrees <= 2k+1 and
whose core vertices each satisfy 2*(attached leaves) + core-degree <= 2k+1,
subdivide every core edge once, then pad each core vertex with pendant edges
until its half-integral degree reaches k + 1/2.  At k = 1 such a base is a
cubic tree with one pendant edge on each leaf.

P5 (from the single-edge cubic base) and the stars are not members of
T(2k+1); they are classified under their own tags, which leaves the family
unions unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from factorsmith.graphs import Graph, is_tree


@dataclass(frozen=True)
class ComponentClass:
    """Structural class of one factor component."""

    kind: str  # P2 | C3 | P5 | star | cubic_expansion | tree_expansion | other
    param: int | None = None

    def __post_init__(self):
        if self.kind == "star" and (self.param is None or self.param < 1):
            raise ValueError("star class needs j >= 1")
        if self.kind == "tree_expansion" and (self.param is None or self.param < 2):
            raise ValueError("tree expansion class needs k >= 2")

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


# --- expansion bases and their expansions ------------------------------------


def is_expansion_base(tree: Graph, k: int) -> bool:
    """Valid base for the construction at k >= 1: tree whose non-leaf core
    has at least two vertices, every core degree odd and <= 2k+1, and each
    core vertex v obeys 2*(leaves attached to v) + core-degree(v) <= 2k+1.
    At k = 1 that is a cubic tree with one pendant edge on each leaf."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not is_tree(tree):
        return False
    deg = [tree.degree(v) for v in range(tree.n)]
    core = [v for v in range(tree.n) if deg[v] >= 2]
    if len(core) < 2:
        return False
    core_set = set(core)
    for v in core:
        core_deg = sum(1 for w in tree.neighbors(v) if w in core_set)
        leaf_count = deg[v] - core_deg
        if core_deg % 2 == 0 or core_deg > 2 * k + 1:
            return False
        if 2 * leaf_count + core_deg > 2 * k + 1:
            return False
    return True


def expand_base_tree(base: Graph, k: int) -> Graph:
    """Subdivide every core edge once; pad each core vertex with
    k - r - (attached leaves) pendant edges, where core-degree = 2r+1.

    The output admits the pendant-red assignment (pendant edges weight 1,
    others 1/2) in which every core vertex reaches h-degree exactly k + 1/2.
    At k = 1 the base P4 (a single core edge) expands to P5, which
    `classify_component` tags `P5`, not `cubic_expansion`.
    """
    if not is_expansion_base(base, k):
        raise ValueError("base tree violates the expansion-base conditions")
    deg = [base.degree(v) for v in range(base.n)]
    core_set = {v for v in range(base.n) if deg[v] >= 2}
    edges: list[tuple[int, int]] = []
    nxt = base.n
    for u, v in base.edges:
        if u in core_set and v in core_set:
            edges.append((u, nxt))
            edges.append((nxt, v))
            nxt += 1
        else:
            edges.append((u, v))
    for v in sorted(core_set):
        core_deg = sum(1 for w in base.neighbors(v) if w in core_set)
        leaves = deg[v] - core_deg
        r = (core_deg - 1) // 2
        for _ in range(k - r - leaves):
            edges.append((v, nxt))
            nxt += 1
    return Graph(nxt, edges)


# --- the recognizer of T(2k+1), k >= 1 ---------------------------------------


def is_tree_expansion(t: Graph, k: int) -> bool:
    """Recognize the trees T(2k+1), for any k >= 1: `t` is a tree of the
    shape `_expansion_shape` tests."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return is_tree(t) and _expansion_shape(t, k)


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
