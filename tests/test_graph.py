"""Graph core: construction, validation, complement, predicates, greedy coloring."""

from __future__ import annotations

import argparse

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpcover import (Budgets, Instance, InstanceInvalidError, SelfLoopError,
                     VertexOutOfRangeError, build_graph, complement, exact_cvck,
                     greedy_partition, is_clique, is_vertex_cover, make_partition,
                     per_part_usage, respects_budgets, serialize_instance, solve,
                     solve_cvck, validate_instance)
from kpcover import cli

from oracles import covers_all_edges, within_budgets
from strategies import graphs, instances


def path3():
    return build_graph(3, [(1, 2), (2, 3)])


def triangle():
    return build_graph(3, [(1, 2), (2, 3), (1, 3)])


def k4():
    return build_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


class TestBuildGraph:
    def test_path(self):
        g = path3()
        assert [len(g.adjacency[v]) for v in g.vertices()] == [1, 2, 1]

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.m == 0

    def test_duplicates_collapse(self):
        g = build_graph(3, [(1, 2), (2, 1), (2, 3)])
        assert g.m == 2
        # shuffled, reversed and duplicated pairs give one stored edge order
        ordered = ((1, 2), (1, 3), (2, 4), (3, 4))
        ref = build_graph(4, ordered)
        for pairs in ([(3, 4), (1, 2), (2, 4), (1, 3)],
                      [(4, 3), (4, 2), (3, 1), (2, 1)],
                      [(1, 2), (2, 1), (1, 3), (3, 1), (2, 4), (3, 4), (4, 3)],
                      [[2, 1], [1, 3], [2, 4], [3, 4]]):
            g = build_graph(4, pairs)
            assert g.sorted_edges() == ref.sorted_edges() == ordered
            assert all(type(e) is tuple for e in g.sorted_edges())
            assert g == ref and hash(g) == hash(ref)

    def test_zero_vertices_rejected(self):
        with pytest.raises(VertexOutOfRangeError,
                           match=r"^vertex count must be >= 1, got 0$"):
            build_graph(0, [])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            build_graph(3, [(1, 4)])

    @given(graphs())
    def test_adjacency_symmetric(self, g):
        for u, v in g.sorted_edges():
            assert v in g.adjacency[u] and u in g.adjacency[v]
        assert sum(len(g.adjacency[v]) for v in g.vertices()) == 2 * g.m


class TestConstructors:
    @pytest.mark.parametrize("k, part_of, message", [
        (0, [], r"^part count must be >= 1, got 0$"),
        (2, [1, 3], r"^vertex 2 assigned to part 3, outside 1\.\.2$"),
        (2, [0, 1], r"^vertex 1 assigned to part 0, outside 1\.\.2$"),
        (2, {1: 1, 3: 2}, r"^partition must assign exactly vertices 1\.\.n$"),
        (2, {0: 1, 1: 2}, r"^partition must assign exactly vertices 1\.\.n$"),
    ], ids=["k-zero", "part-above-k", "part-zero", "key-gap", "key-zero"])
    def test_make_partition_rejects(self, k, part_of, message):
        with pytest.raises(VertexOutOfRangeError, match=message):
            make_partition(k, part_of)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match=r"^budgets must be non-negative$"):
            Budgets((1, -1))


class TestValidate:
    def test_singleton_parts_ok(self):
        inst = Instance(triangle(), make_partition(3, [1, 2, 3]), Budgets((1, 1, 1)))
        assert validate_instance(inst).ok

    def test_intra_part_edge_flagged(self):
        inst = Instance(triangle(), make_partition(2, [1, 1, 2]), Budgets((2, 1)))
        report = validate_instance(inst)
        assert not report.ok
        assert any("(1, 2)" in v for v in report.violations)

    def test_path_bipartition_ok(self):
        inst = Instance(path3(), make_partition(2, [1, 2, 1]), Budgets((0, 1)))
        assert validate_instance(inst).ok

    def test_empty_part_is_warning(self):
        inst = Instance(build_graph(2, [(1, 2)]), make_partition(3, [1, 2]),
                        Budgets((1, 1, 1)))
        report = validate_instance(inst)
        assert report.ok
        assert any("part 3" in w for w in report.warnings)

    def test_partition_size_mismatch(self):
        inst = Instance(path3(), make_partition(2, [1, 2]), Budgets((1, 1)))
        report = validate_instance(inst)
        assert not report.ok
        assert report.violations == ("partition assigns 2 vertices, graph has 3",)
        assert report.warnings == ()

    def test_budget_arity_mismatch(self):
        inst = Instance(path3(), make_partition(2, [1, 2, 1]), Budgets((1,)))
        assert not validate_instance(inst).ok


class TestRefusal:
    """Every entry point refuses an invalid instance with the report validate_instance gives."""

    # one intra-part edge, (1, 2) in part 1, and three budgets for two parts
    INVALID = Instance(path3(), make_partition(2, [1, 1, 2]), Budgets((1, 1, 1)))
    MESSAGE = ("budgets have 3 entries, partition has 2 parts; "
               "intra-part edge (1, 2) in part 1")

    @pytest.mark.parametrize("refuse", [
        serialize_instance, solve_cvck, exact_cvck,
        lambda inst: solve(inst, "2approx"),
        lambda inst: cli.cmd_validate(argparse.Namespace(path="invalid.kpvc")),
    ], ids=["serialize_instance", "solve_cvck", "exact_cvck", "solve-2approx",
            "validate-command"])
    def test_error_carries_the_report(self, refuse, monkeypatch):
        # the validate command reads its instance through _load_instance
        monkeypatch.setattr(cli, "_load_instance", lambda path: self.INVALID)
        with pytest.raises(InstanceInvalidError) as info:
            refuse(self.INVALID)
        assert info.value.report == validate_instance(self.INVALID)
        assert str(info.value) == self.MESSAGE

    def test_validate_command_exits_3_with_the_violations(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_load_instance", lambda path: self.INVALID)
        assert cli.main(["validate", "invalid.kpvc"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {self.MESSAGE}\n"

    def test_check_returns_the_same_report_when_ok(self):
        report = validate_instance(Instance(path3(), make_partition(2, [1, 2, 1]),
                                            Budgets((0, 1))))
        assert report.ok and report.check() is report


class TestComplement:
    def test_k3_complement_empty(self):
        assert complement(triangle()).m == 0

    def test_empty_two_vertices(self):
        g = complement(build_graph(2, []))
        assert g.sorted_edges() == ((1, 2),)

    @given(graphs(max_n=10))
    def test_involution(self, g):
        assert complement(complement(g)) == g

    @given(graphs(max_n=10))
    def test_edge_count_identity(self, g):
        assert g.m + complement(g).m == g.n * (g.n - 1) // 2


class TestPredicates:
    def test_cover_examples(self):
        g = path3()
        assert is_vertex_cover(g, {2})
        assert is_vertex_cover(g, {1, 3})
        assert not is_vertex_cover(g, {1})

    def test_k4_two_subsets_never_cover(self):
        from itertools import combinations
        g = k4()
        assert all(not is_vertex_cover(g, set(c)) for c in combinations(range(1, 5), 2))
        assert is_vertex_cover(g, {1, 2, 3})

    def test_clique_examples(self):
        g = path3()
        assert is_clique(g, set())
        assert is_clique(g, {2})
        assert is_clique(triangle(), {1, 2, 3})
        assert not is_clique(g, {1, 3})

    def test_out_of_range_vertex(self):
        with pytest.raises(VertexOutOfRangeError):
            is_vertex_cover(path3(), {9})
        with pytest.raises(VertexOutOfRangeError):
            is_clique(path3(), {0})

    @pytest.mark.parametrize("s", [[0, 2], [-1], [7]])
    def test_budget_predicates_reject_out_of_range_vertex(self, s):
        # path 1-2-3 in parts (1, 2, 1): 0 and -1 once indexed part_of[0]
        # and vertex 3's part, and 7 raised a bare IndexError
        inst = Instance(path3(), make_partition(2, [1, 2, 1]), Budgets((0, 1)))
        with pytest.raises(VertexOutOfRangeError):
            respects_budgets(inst, s)
        with pytest.raises(VertexOutOfRangeError):
            per_part_usage(inst.partition, s)

    def test_budget_examples(self):
        inst = Instance(path3(), make_partition(2, [1, 2, 1]), Budgets((0, 1)))
        assert respects_budgets(inst, set())
        assert respects_budgets(inst, {2})
        assert not respects_budgets(inst, {1})

    @given(instances(), st.data())
    def test_predicates_match_naive_definitions(self, inst, data):
        g = inst.graph
        s = data.draw(st.sets(st.integers(1, g.n)))
        assert is_vertex_cover(g, s) == covers_all_edges(g.sorted_edges(), s)
        assert respects_budgets(inst, s) == within_budgets(
            inst.partition.part_of, inst.budgets.limits, s)

    def test_predicates_are_pure(self):
        g = path3()
        inst = Instance(g, make_partition(2, [1, 2, 1]), Budgets((0, 1)))
        for _ in range(3):
            assert is_vertex_cover(g, {2}) is True
            assert is_clique(g, {1, 2}) is True
            assert respects_budgets(inst, {2}) is True

    @given(graphs(), st.data())
    def test_gallai_duality(self, g, data):
        # s covers g iff the complement set spans no edge of g
        s = data.draw(st.sets(st.integers(1, g.n)))
        rest = set(g.vertices()) - s
        independent = all(not (u in rest and v in rest) for u, v in g.sorted_edges())
        assert is_vertex_cover(g, s) == independent


class TestGreedyPartition:
    def test_edgeless_single_part(self):
        part = greedy_partition(build_graph(3, []))
        assert part.k == 1 and part.parts[1] == frozenset({1, 2, 3})

    def test_triangle_singletons(self):
        part = greedy_partition(triangle())
        assert part.k == 3
        assert [part.part_of[v] for v in (1, 2, 3)] == [1, 2, 3]

    def test_path_two_parts(self):
        part = greedy_partition(path3())
        assert part.k == 2
        assert part.parts[1] == frozenset({1, 3}) and part.parts[2] == frozenset({2})

    @given(graphs(max_n=10))
    def test_output_is_proper(self, g):
        part = greedy_partition(g)
        for u, v in g.sorted_edges():
            assert part.part_of[u] != part.part_of[v]

    @given(graphs(max_n=10))
    def test_usage_counts(self, g):
        part = greedy_partition(g)
        usage = per_part_usage(part, g.vertices())
        assert sum(usage) == g.n
