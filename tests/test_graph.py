"""Graph core: construction, validation, complement, predicates, greedy coloring."""

from __future__ import annotations

import argparse
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpcover import (Budgets, GenSpec, Instance, InstanceInvalidError,
                     SelfLoopError, SplitMix64, VertexOutOfRangeError,
                     build_graph, complement, exact_cvck, exact_max_clique,
                     gen_complete_kpartite, gen_kpartite, gen_tree,
                     greedy_partition, is_clique, is_vertex_cover, make_partition,
                     parse_instance, per_part_usage, reduce_clique_to_vc,
                     respects_budgets, serialize_instance, solve, solve_cvck,
                     validate_instance)
from kpcover import cli, graph

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


def shuffled_text(inst, seed):
    """inst's text with every record after the p line in a seeded order and
    every other e record's endpoints swapped."""
    head, *records = serialize_instance(inst).splitlines()
    rng = SplitMix64(seed)
    for i in range(len(records) - 1, 0, -1):
        j = rng.next_below(i + 1)
        records[i], records[j] = records[j], records[i]
    for i, line in enumerate(records):
        kind, *fields = line.split()
        if kind == "e" and i % 2:
            records[i] = f"e {fields[1]} {fields[0]}"
    return "\n".join([head, *records]) + "\n"


def descending_v_records(inst):
    """inst's canonical text with its v records in descending vertex id."""
    lines = serialize_instance(inst).splitlines(keepends=True)
    v_at = [i for i, line in enumerate(lines) if line.startswith("v ")]
    lines[v_at[0]:v_at[-1] + 1] = reversed(lines[v_at[0]:v_at[-1] + 1])
    return "".join(lines)


def frozenset_reference(g):
    """g's neighbour sets rebuilt from its edges, as frozensets."""
    nbrs = [set() for _ in range(g.n + 1)]
    for u, v in g.sorted_edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return [frozenset(s) for s in nbrs]


def reference_ensemble():
    """Seeded small graphs with every density from empty to complete."""
    rng = SplitMix64(0xAD7AC)
    for _ in range(80):
        n = 1 + rng.next_below(12)
        tenths = rng.next_below(11)  # density 0.0 to 1.0
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.next_below(10) < tenths]
        yield build_graph(n, pairs)


class TestAdjacencyContract:
    """adjacency[v] is the ascending tuple of v's neighbours, whichever
    builder made the graph; readers that test membership build their own
    sets and answer as the frozenset adjacency did."""

    @staticmethod
    def assert_ascending_tuples(g):
        nbrs = frozenset_reference(g)
        assert len(g.adjacency) == g.n + 1 and g.adjacency[0] == ()
        assert all(type(a) is tuple for a in g.adjacency)
        assert list(g.adjacency) == [tuple(sorted(s)) for s in nbrs]

    @pytest.mark.parametrize("make", [
        lambda: build_graph(5, [(5, 1), (4, 2), (3, 1), (2, 1), (5, 3)]),
        lambda: build_graph(5, [(1, 2), (2, 1), (1, 2), (4, 3), (3, 4), (5, 4)]),
        lambda: gen_kpartite(GenSpec(n=60, k=4, density=0.5, seed=7)).graph,
        lambda: gen_kpartite(GenSpec(n=31, k=3, density=0.2, seed=8)).graph,
        lambda: gen_complete_kpartite((3, 1, 4)).graph,
        lambda: gen_tree(40, 9).graph,
        lambda: complement(gen_kpartite(GenSpec(n=30, k=3, density=0.4, seed=10)).graph),
        lambda: parse_instance(shuffled_text(
            gen_kpartite(GenSpec(n=40, k=4, density=0.5, seed=11)), 12)).graph,
    ], ids=["build-reversed", "build-duplicates", "gen-kpartite-dense",
            "gen-kpartite-sparse", "gen-complete", "gen-tree", "complement",
            "parse-shuffled"])
    def test_every_builder_gives_ascending_tuples(self, make):
        g = make()
        assert g.m > 0
        self.assert_ascending_tuples(g)

    def test_parse_of_shuffled_text_is_the_instance(self):
        inst = gen_kpartite(GenSpec(n=40, k=4, density=0.5, seed=11))
        parsed = parse_instance(shuffled_text(inst, 12))
        assert parsed == inst and parsed.graph.adjacency == inst.graph.adjacency

    def test_membership_readers_match_a_frozenset_reference(self):
        rng = SplitMix64(0xC11C)
        graphs = list(reference_ensemble())
        for g in graphs:
            nbrs = frozenset_reference(g)
            missing = tuple((u, v) for u, v in combinations(g.vertices(), 2)
                            if v not in nbrs[u])
            comp = complement(g)
            assert comp.edge_order == missing
            self.assert_ascending_tuples(comp)
            for k in (0, g.n // 2, g.n):
                reduced = reduce_clique_to_vc(g, k)
                assert reduced.complement_graph.edge_order == missing
                assert reduced.complement_graph.adjacency == comp.adjacency
                assert reduced.target_cover_size == g.n - k
            cliques = [s for size in range(g.n, -1, -1)
                       for s in combinations(g.vertices(), size)
                       if all(v in nbrs[u] for u, v in combinations(s, 2))]
            # combinations come in lexicographic order within a size, so the
            # first is the largest clique that sorts first
            assert exact_max_clique(g) == frozenset(cliques[0])
            subsets = [frozenset(v for v in g.vertices() if rng.next_below(2))
                       for _ in range(20)]
            for s in subsets + [frozenset(c) for c in cliques[:20]]:
                assert is_clique(g, s) == all(v in nbrs[u] for u, v in combinations(s, 2))
        assert sum(g.m for g in graphs) > 500

    def test_adjacency_costs_at_most_24_bytes_per_edge(self):
        # a frozenset per vertex held about 135 B per edge on this graph
        g = gen_kpartite(GenSpec(n=200, k=4, density=0.5, seed=41)).graph
        tracemalloc.start()
        try:
            rebuilt = graph._sorted_graph(g.n, g.edge_order)  # shares the edge tuple
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rebuilt.adjacency == g.adjacency
        assert held <= 24 * g.m, held / g.m


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

    @pytest.mark.parametrize("build", [
        lambda: make_partition(3, [2, 1, 3, 1, 2, 2, 3, 1]),
        lambda: make_partition(3, {v: 1 + v * 5 % 3 for v in range(9, 0, -1)}),
        lambda: gen_kpartite(GenSpec(n=13, k=4, density=0.5, seed=3)).partition,
        lambda: gen_tree(15, 3).partition,
        lambda: gen_complete_kpartite((2, 3, 1)).partition,
        lambda: greedy_partition(complement(gen_kpartite(
            GenSpec(n=14, k=3, density=0.6, seed=5)).graph)),
        lambda: parse_instance(descending_v_records(gen_tree(12, 4))).partition,
    ], ids=["sequence", "mapping", "gen-kpartite", "gen-tree", "gen-complete",
            "greedy-partition", "parse-descending-v"])
    def test_every_builder_stores_each_part_ascending(self, build):
        part = build()
        assert part.parts == tuple(
            tuple(v for v in range(1, part.n + 1) if part.part_of[v] == p)
            for p in range(part.k + 1))

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

    def test_repeated_vertex_counts_once(self):
        # edge 1-2 in parts (1, 2), budgets (1, 1): a vertex listed twice is
        # still one vertex, as respects_budgets and is_vertex_cover take it
        inst = Instance(build_graph(2, [(1, 2)]), make_partition(2, [1, 2]), Budgets((1, 1)))
        assert per_part_usage(inst.partition, [1, 1]) == (1, 0)
        assert per_part_usage(inst.partition, iter([2, 1, 2])) == (1, 1)
        assert respects_budgets(inst, [1, 1]) and is_vertex_cover(inst.graph, [1, 1])

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
        assert part.k == 1 and part.parts[1] == (1, 2, 3)

    def test_triangle_singletons(self):
        part = greedy_partition(triangle())
        assert part.k == 3
        assert [part.part_of[v] for v in (1, 2, 3)] == [1, 2, 3]

    def test_path_two_parts(self):
        part = greedy_partition(path3())
        assert part.k == 2
        assert part.parts[1] == (1, 3) and part.parts[2] == (2,)

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
