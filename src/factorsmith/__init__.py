"""Exact small-graph factor toolkit.

Checks the isolated-vertex condition iso(G-S) <= c|S|, finds half-integral
[1, k+1/2] edge weightings, and rewrites them into certified component
factors whose pieces come from two parametrised tree families.  All
arithmetic is exact (integers and fractions); nothing here uses floating
point.
"""

from factorsmith.graphs import Graph, encode_graph6, parse_edge_list, parse_graph6

__all__ = [
    "Graph",
    "encode_graph6",
    "parse_edge_list",
    "parse_graph6",
]
