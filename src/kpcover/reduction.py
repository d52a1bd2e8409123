"""Clique-to-cover reduction via graph complement, with certificate translation.

A graph has a clique of size k exactly when its complement has a vertex
cover of size n - k; the witnesses map to each other by set complement in
both directions.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import KOutOfRangeError, NotACliqueError, NotACoverError
from .graph import Graph, complement, is_clique, is_vertex_cover


@dataclass(frozen=True)
class ReductionOutput:
    complement_graph: Graph
    target_cover_size: int


def reduce_clique_to_vc(g: Graph, k_clique: int) -> ReductionOutput:
    """Map the clique question (g, k) to the cover question (complement, n - k)."""
    if not (0 <= k_clique <= g.n):
        raise KOutOfRangeError(f"clique size {k_clique} outside 0..{g.n}")
    return ReductionOutput(complement_graph=complement(g),
                           target_cover_size=g.n - k_clique)


def clique_cert_to_cover(g: Graph, clique: Iterable[int]) -> frozenset[int]:
    """Turn a clique of g into a vertex cover of the complement of g."""
    cset = frozenset(clique)
    if not is_clique(g, cset):
        raise NotACliqueError(f"{sorted(cset)} is not a clique")
    return frozenset(g.vertices()) - cset


def cover_cert_to_clique(g: Graph, cover: Iterable[int]) -> frozenset[int]:
    """Turn a vertex cover of the complement of g into a clique of g."""
    cov = frozenset(cover)
    if not is_vertex_cover(complement(g), cov):
        raise NotACoverError(f"{sorted(cov)} does not cover the complement")
    return frozenset(g.vertices()) - cov
