"""Maximal-matching 2-approximation for unconstrained vertex cover."""

from __future__ import annotations

from bisect import bisect

from .graph import Edge, Graph


def matching_vertex_cover(g: Graph) -> tuple[frozenset[int], tuple[Edge, ...]]:
    """Cover plus the matching that produced it.

    Repeatedly take the lexicographically smallest live edge, add both
    endpoints, and drop every edge they touch. The picked edges form a
    maximal matching, so the cover is at most twice the optimum. In edge
    order that is one scan per vertex u not yet covered: its edges to
    smaller vertices were dropped already, and it is matched to the first
    vertex of its tail not yet covered, which drops the rest of its edges.
    """
    cover: set[int] = set()
    matching: list[Edge] = []
    for u, nbrs in enumerate(g.adjacency):
        if u not in cover:
            for v in nbrs[bisect(nbrs, u):]:
                if v not in cover:
                    cover.add(u)
                    cover.add(v)
                    matching.append((u, v))
                    break
    return frozenset(cover), tuple(matching)


def two_approx_vc(g: Graph) -> frozenset[int]:
    """Vertex cover of size at most twice the minimum. Ignores budgets."""
    cover, _ = matching_vertex_cover(g)
    return cover
