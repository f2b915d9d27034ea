"""Tree families for component factors: generators and recognizers.

Two constructions produce the admissible non-star tree shapes:

* cubic expansion (parameter fixed at budget 3): take a tree whose degrees
  are all 1 or 3, insert a degree-2 vertex into every edge, then hang a fresh
  pendant edge on every original leaf;
* base expansion for k >= 2: take a tree whose non-leaf core has odd degrees
  <= 2k+1 and whose core vertices each satisfy 2*(attached leaves) +
  core-degree <= 2k+1, subdivide every core edge once, then pad each core
  vertex with pendant edges until its half-integral degree reaches k + 1/2.

The recognizers are purely structural degree/path checks (isomorphism
invariant by construction, no search).  Policy: the path P5 is excluded from
the cubic-expansion family (it only arises from the degenerate single-edge
base) and stars are excluded from the k >= 2 family; both are classified
under their own tags, which leaves the family unions unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from factorsmith.graphs import Graph, degree2_chains, is_path_graph, is_tree


@dataclass(frozen=True)
class Family:
    """Which component family a factor targets: F1 (k = 1) or F2(k), k >= 2."""

    kind: str
    k: int

    def __post_init__(self):
        if self.kind == "F1":
            if self.k != 1:
                raise ValueError("family F1 is the k = 1 family")
        elif self.kind == "F2":
            if self.k < 2:
                raise ValueError("family F2 needs k >= 2")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    @classmethod
    def f1(cls) -> "Family":
        return cls("F1", 1)

    @classmethod
    def f2(cls, k: int) -> "Family":
        return cls("F2", k)

    @classmethod
    def for_k(cls, k: int) -> "Family":
        return cls.f1() if k == 1 else cls.f2(k)


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


# --- cubic trees and their expansions ----------------------------------------


def is_cubic_tree(g: Graph) -> bool:
    """Tree with every degree in {1, 3}."""
    return is_tree(g) and all(g.degree(v) in (1, 3) for v in range(g.n))


def expand_cubic_tree(base: Graph) -> Graph:
    """Subdivide every edge once and add a pendant edge to every leaf.

    Requires a cubic tree with at least one degree-3 vertex (the single-edge
    base would just rebuild P5, which is classified on its own).
    """
    if not is_cubic_tree(base):
        raise ValueError("base must be a tree with all degrees in {1, 3}")
    if not any(base.degree(v) == 3 for v in range(base.n)):
        raise ValueError("base must contain a degree-3 vertex")
    n = base.n
    edges: list[tuple[int, int]] = []
    nxt = n
    for u, v in base.edges:
        edges.append((u, nxt))
        edges.append((nxt, v))
        nxt += 1
    for leaf in range(n):
        if base.degree(leaf) == 1:
            edges.append((leaf, nxt))
            nxt += 1
    return Graph(nxt, edges)


def is_cubic_expansion(t: Graph) -> bool:
    """Recognize expanded cubic trees structurally: a tree with degrees in
    {1,2,3}, at least one branch vertex, every branch-branch gap bridged by
    exactly one degree-2 vertex, and every leaf exactly three steps from its
    branch vertex through two degree-2 vertices."""
    if not is_tree(t):
        return False
    deg = [t.degree(v) for v in range(t.n)]
    if any(d > 3 or d == 0 for d in deg):
        return False
    if 3 not in deg:
        return False
    for chain_a, interior, chain_b in degree2_chains([list(t.neighbors(v)) for v in range(t.n)]):
        kinds = (deg[chain_a], deg[chain_b])
        if kinds == (3, 3):
            if len(interior) != 1:
                return False
        elif 1 in kinds:
            # leaf-anchored chain must be leaf,2,2,branch
            if len(interior) != 2 or (deg[chain_a] == 1 and deg[chain_b] == 1):
                return False
        else:
            return False
    return True


# --- expansion bases for k >= 2 and their expansions --------------------------


def is_expansion_base(tree: Graph, k: int) -> bool:
    """Valid base for the k >= 2 construction: tree whose non-leaf core has at
    least two vertices, every core degree odd and <= 2k+1, and each core
    vertex v obeys 2*(leaves attached to v) + core-degree(v) <= 2k+1."""
    if k < 2:
        raise ValueError("expansion bases are defined for k >= 2")
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


def is_tree_expansion(t: Graph, k: int) -> bool:
    """Recognize expanded base trees: a tree with >= 2 branch vertices where
    no two branch vertices are adjacent, every leaf hangs on a branch vertex,
    every degree-2 vertex joins two branch vertices, and each branch vertex b
    saturates its budget: 2*(leaf neighbours) + (degree-2 neighbours) = 2k+1."""
    if k < 2:
        raise ValueError("tree expansions are defined for k >= 2")
    if not is_tree(t):
        return False
    deg = [t.degree(v) for v in range(t.n)]
    branches = [v for v in range(t.n) if deg[v] >= 3]
    if len(branches) < 2:
        return False
    branch_set = set(branches)
    for v in range(t.n):
        if deg[v] == 1:
            nb = next(t.neighbors(v))
            if nb not in branch_set:
                return False
        elif deg[v] == 2:
            if any(w not in branch_set for w in t.neighbors(v)):
                return False
    for b in branches:
        pendant = 0
        mid = 0
        for w in t.neighbors(b):
            if deg[w] == 1:
                pendant += 1
            elif deg[w] == 2:
                mid += 1
            else:
                return False  # adjacent branch vertices never occur
        if 2 * pendant + mid != 2 * k + 1:
            return False
    return True


# --- classification -----------------------------------------------------------


def classify_component(t: Graph, family: Family) -> ComponentClass:
    """Structural class of a connected graph within the given family; no
    isomorphism search, only degree and path tests."""
    if t.n == 0:
        return OTHER
    if family.kind == "F1":
        if t.n == 2 and t.num_edges == 1:
            return P2
        if t.n == 3 and t.num_edges == 3:
            return C3
        if t.n == 5 and is_path_graph(t):
            return P5
        if is_cubic_expansion(t):
            return cubic_expansion()
        return OTHER
    # F2(k): stars up to K_{1,k}, plus tree expansions
    if is_tree(t) and t.n >= 2:
        j = t.n - 1
        if max(t.degree(v) for v in range(t.n)) == j:
            return star(j) if j <= family.k else OTHER
    if is_tree_expansion(t, family.k):
        return tree_expansion(family.k)
    return OTHER


def pendant_half_assignment(t: Graph):
    """Weight 1 on pendant edges, 1/2 elsewhere: the canonical assignment
    carried by every generated family tree."""
    from factorsmith.factors import HalfIntegralAssignment

    units = {}
    for u, v in t.edges:
        pendant = t.degree(u) == 1 or t.degree(v) == 1
        units[(u, v)] = 2 if pendant else 1
    return HalfIntegralAssignment(t, units)
