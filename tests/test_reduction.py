"""Clique-to-cover reduction and certificate translation."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings

from kpcover import (KOutOfRangeError, NotACliqueError, NotACoverError,
                     build_graph, clique_cert_to_cover, complement,
                     cover_cert_to_clique, exact_max_clique, exact_min_vc,
                     is_clique, is_vertex_cover, reduce_clique_to_vc)

from strategies import graphs


def triangle():
    return build_graph(3, [(1, 2), (2, 3), (1, 3)])


def triangle_plus_isolated():
    return build_graph(4, [(1, 2), (2, 3), (1, 3)])


class TestReduce:
    def test_complete_graph_maps_to_empty(self):
        out = reduce_clique_to_vc(triangle(), 3)
        assert out.complement_graph.m == 0
        assert out.target_cover_size == 0

    def test_isolated_vertex_becomes_star(self):
        out = reduce_clique_to_vc(triangle_plus_isolated(), 3)
        assert out.complement_graph.sorted_edges() == ((1, 4), (2, 4), (3, 4))
        assert out.target_cover_size == 1
        assert exact_min_vc(out.complement_graph) == frozenset({4})

    def test_empty_graph_maps_to_complete(self):
        out = reduce_clique_to_vc(build_graph(2, []), 1)
        assert out.complement_graph.sorted_edges() == ((1, 2),)
        assert out.target_cover_size == 1

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRangeError):
            reduce_clique_to_vc(triangle(), 4)
        with pytest.raises(KOutOfRangeError):
            reduce_clique_to_vc(triangle(), -1)


class TestCertificates:
    def test_clique_to_cover_example(self):
        g = triangle_plus_isolated()
        cover = clique_cert_to_cover(g, {1, 2, 3})
        assert cover == frozenset({4})
        assert is_vertex_cover(complement(g), cover)

    def test_empty_clique_gives_full_cover(self):
        g = triangle()
        assert clique_cert_to_cover(g, set()) == frozenset({1, 2, 3})

    def test_k2_full_clique_gives_empty_cover(self):
        g = build_graph(2, [(1, 2)])
        assert clique_cert_to_cover(g, {1, 2}) == frozenset()

    def test_cover_to_clique_examples(self):
        assert cover_cert_to_clique(triangle_plus_isolated(), {4}) == frozenset({1, 2, 3})
        assert cover_cert_to_clique(build_graph(3, []), {1, 2}) == frozenset({3})

    def test_rejects_bad_certificates(self):
        g = build_graph(3, [(1, 2)])
        with pytest.raises(NotACliqueError):
            clique_cert_to_cover(g, {1, 2, 3})
        with pytest.raises(NotACoverError):
            cover_cert_to_clique(g, set())  # complement edge (1,3) uncovered

    @given(graphs(max_n=6))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_on_every_clique(self, g):
        vertices = list(g.vertices())
        for size in range(len(vertices) + 1):
            for combo in combinations(vertices, size):
                s = frozenset(combo)
                if not is_clique(g, s):
                    continue
                cover = clique_cert_to_cover(g, s)
                assert is_vertex_cover(complement(g), cover)
                assert cover_cert_to_clique(g, cover) == s

    @given(graphs(max_n=9))
    @settings(max_examples=80, deadline=None)
    def test_size_identity(self, g):
        assert len(exact_max_clique(g)) + len(exact_min_vc(complement(g))) == g.n
