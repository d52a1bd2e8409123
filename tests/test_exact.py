"""Exact solvers against exhaustive enumeration and each other."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings

from kpcover import (Budgets, GenSpec, Instance, InstanceInvalidError,
                     SplitMix64, build_graph, complement, exact_cvck,
                     exact_max_clique, exact_min_vc, gen_kpartite,
                     gen_tree, is_vertex_cover, make_partition, respects_budgets,
                     serialize_instance)
from kpcover.cli import main

from oracles import (brute_max_clique_size, brute_min_cvck, brute_min_vc_size,
                     brute_optima)
from strategies import graphs, instances


def path_instance(limits=(0, 1)):
    return Instance(build_graph(3, [(1, 2), (2, 3)]),
                    make_partition(2, [1, 2, 1]), Budgets(limits))


def triangle_instance(limits=(1, 1, 1)):
    return Instance(build_graph(3, [(1, 2), (2, 3), (1, 3)]),
                    make_partition(3, [1, 2, 3]), Budgets(limits))


class TestExactCvck:
    def test_path_forced_center(self):
        res = exact_cvck(path_instance((0, 1)))
        assert res.feasible and res.cover == frozenset({2}) and res.size == 1

    def test_path_infeasible(self):
        res = exact_cvck(path_instance((0, 0)))
        assert res.status == "Infeasible"
        assert res.cover is None and res.size is None

    def test_triangle_budget_excludes_vertex(self):
        res = exact_cvck(triangle_instance((1, 1, 0)))
        assert res.feasible and res.cover == frozenset({1, 2}) and res.size == 2

    def test_invalid_instance_rejected(self):
        bad = Instance(build_graph(2, [(1, 2)]), make_partition(1, [1, 1]),
                       Budgets((2,)))
        with pytest.raises(InstanceInvalidError):
            exact_cvck(bad)

    def test_decision_form(self):
        assert exact_cvck(path_instance((0, 1))).feasible
        assert not exact_cvck(path_instance((0, 0))).feasible

    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration(self, inst):
        res = exact_cvck(inst)
        optima = brute_optima(inst)
        if res.feasible:
            assert optima
            assert res.size == len(next(iter(optima)))
            assert res.cover in optima
            # deterministic tie-break: lexicographically smallest vertex sequence
            assert tuple(sorted(res.cover)) == min(tuple(sorted(c)) for c in optima)
        else:
            assert optima == set()

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_unbounded_budgets_reduce_to_min_vc(self, inst):
        free = Instance(inst.graph, inst.partition,
                        Budgets((inst.graph.n,) * inst.partition.k))
        res = exact_cvck(free)
        assert res.feasible
        assert res.size == len(exact_min_vc(inst.graph))

    @given(instances(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_budget_monotonicity(self, inst):
        base = exact_cvck(inst)
        for i in range(inst.partition.k):
            limits = list(inst.budgets.limits)
            limits[i] += 1
            raised = exact_cvck(Instance(inst.graph, inst.partition,
                                         Budgets(tuple(limits))))
            if base.feasible:
                assert raised.feasible
                assert raised.size <= base.size


def forced_long_path(n=2400):
    """Path 1-2-...-n, even vertices in part 1; budgets (n/2, 0) leave the
    even vertices as the only cover."""
    return Instance(build_graph(n, [(v, v + 1) for v in range(1, n)]),
                    make_partition(2, [1 + v % 2 for v in range(1, n + 1)]),
                    Budgets((n // 2, 0)))


class TestSearchDepth:
    def test_long_forced_path(self):
        res = exact_cvck(forced_long_path())
        assert res.feasible and res.cover == frozenset(range(2, 2401, 2))
        assert res.nodes_explored == 1201

    def test_long_forced_path_cli(self, tmp_path, capsys):
        path = tmp_path / "path.kpvc"
        path.write_text(serialize_instance(forced_long_path()))
        assert main(["solve", str(path), "--algo", "exact"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "Feasible" and out["size"] == 1200


def tie_heavy_instances():
    """Seeded k-partite instances (k = 2..4) and trees with 6 <= n <= 12
    under loose budgets (slack:2, or fixed limits at or above each part's
    even share), where most instances have several optima."""
    rng = SplitMix64(0x71E5)
    for i in range(80):
        n = 6 + rng.next_below(7)
        k = 2 + rng.next_below(3)
        density = (0.2, 0.3, 0.5)[rng.next_below(3)]
        mode = "slack:2"
        if i % 2:
            mode = "fixed:" + ",".join(str(n // k + rng.next_below(3))
                                       for _ in range(k))
        yield gen_kpartite(GenSpec(n=n, k=k, density=density,
                                   seed=rng.next_u64(), budget_mode=mode))
    for i in range(40):
        n = 6 + rng.next_below(7)
        mode = "slack:2"
        if i % 2:
            mode = f"fixed:{n // 2 + rng.next_below(2)},{n // 2 + rng.next_below(2)}"
        yield gen_tree(n, rng.next_u64(), mode)


def assert_smallest_optima(inst):
    """Check that exact_cvck and exact_min_vc each return the smallest
    sorted optimum brute force finds; return exact_cvck's result and both
    sets of optima."""
    optima = brute_optima(inst)
    res = exact_cvck(inst)
    assert res.feasible == bool(optima)
    if optima:
        assert tuple(sorted(res.cover)) == min(tuple(sorted(c)) for c in optima)
    free = Instance(inst.graph, inst.partition,
                    Budgets((inst.graph.n,) * inst.partition.k))
    vc_optima = brute_optima(free)
    assert (tuple(sorted(exact_min_vc(inst.graph)))
            == min(tuple(sorted(c)) for c in vc_optima))
    return res, optima, vc_optima


def test_tied_optima_settle_to_the_smallest_sequence():
    # the search keeps its first optimum in visit order; on every instance
    # that must be the lexicographically smallest of all optimal covers
    tied = 0  # covers checked against more than one optimum
    for inst in tie_heavy_instances():
        _, optima, vc_optima = assert_smallest_optima(inst)
        tied += (len(optima) > 1) + (len(vc_optima) > 1)
    assert tied >= 170, tied  # 179 of the 240 checks


def star_at_highest_id(limits):
    """Leaves 1..5 in part 1, centre 6 in part 2: every edge is (v, 6)."""
    return Instance(build_graph(6, [(v, 6) for v in range(1, 6)]),
                    make_partition(2, [1, 1, 1, 1, 1, 2]), Budgets(limits))


# each node scans edges from first[start], the first edge whose smaller
# endpoint is at least the parent's branching vertex; these graphs sit at
# the ends of that table
@pytest.mark.parametrize("inst, status", [
    pytest.param(Instance(build_graph(5, []), make_partition(2, [1, 2, 1, 2, 1]),
                          Budgets((0, 0))), "Feasible", id="edgeless"),
    pytest.param(Instance(build_graph(8, [(5, 6), (5, 8), (6, 7), (6, 8), (7, 8)]),
                          make_partition(3, [1, 2, 3, 1, 1, 2, 1, 3]),
                          Budgets((1, 1, 1))), "Feasible", id="low-ids-isolated"),
    pytest.param(star_at_highest_id((5, 0)), "Feasible", id="star-centre-out"),
    pytest.param(star_at_highest_id((5, 1)), "Feasible", id="star-centre-in"),
    pytest.param(star_at_highest_id((4, 0)), "Infeasible", id="star-infeasible"),
    pytest.param(gen_kpartite(GenSpec(n=10, k=3, density=0.4, seed=1,
                                      budget_mode="fixed:2,1,1")),
                 "Infeasible", id="fixed-infeasible"),
])
def test_scan_start_edge_cases(inst, status):
    assert assert_smallest_optima(inst)[0].status == status


# nodes_explored is part of the oracle's contract: a change to the branch
# order, the bound or the tie-break shows up here first
@pytest.mark.parametrize("n, k, density, seed, mode, status, size, nodes", [
    (34, 4, 0.1, 1, "slack:1", "Feasible", 17, 2791),
    (30, 3, 0.1, 2, "slack:0", "Feasible", 12, 751),
    (20, 4, 0.5, 3, "slack:1", "Feasible", 14, 83),
    (18, 3, 0.8, 4, "slack:0", "Feasible", 12, 13),
    (16, 3, 0.3, 5, "exact", "Feasible", 9, 16),
    (20, 4, 0.2, 6, "exact", "Feasible", 9, 10),
    (14, 3, 0.4, 7, "fixed:3,3,3", "Feasible", 8, 27),
    (16, 2, 0.3, 8, "fixed:4,9", "Feasible", 8, 139),
    (14, 3, 0.4, 7, "fixed:2,2,2", "Infeasible", None, 4),
    (60, 4, 0.1, 1000, "slack:1", "Feasible", 30, 51189),
    (80, 4, 0.3, 1002, "slack:1", "Feasible", 60, 5559),
    (40, 3, 0.2, 1004, "slack:0", "Feasible", 24, 2310),
])
def test_nodes_explored_pinned(n, k, density, seed, mode, status, size, nodes):
    res = exact_cvck(gen_kpartite(GenSpec(n=n, k=k, density=density, seed=seed,
                                          budget_mode=mode)))
    assert (res.status, res.size, res.nodes_explored) == (status, size, nodes)


class TestExactMinVc:
    def test_empty_graph(self):
        assert exact_min_vc(build_graph(4, [])) == frozenset()

    def test_k4_needs_three(self):
        g = build_graph(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
        assert len(exact_min_vc(g)) == 3

    def test_star_center(self):
        g = build_graph(6, [(1, v) for v in range(2, 7)])
        assert exact_min_vc(g) == frozenset({1})

    def test_cycle_tie_break(self):
        g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert exact_min_vc(g) == frozenset({1, 3})

    @given(graphs(max_n=9))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, g):
        cover = exact_min_vc(g)
        assert is_vertex_cover(g, cover)
        assert len(cover) == brute_min_vc_size(g.n, g.sorted_edges())

    @given(graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_gallai_identity(self, g):
        # max independent set size by direct enumeration of edge-free subsets
        from itertools import combinations
        max_is = 0
        for size in range(g.n, -1, -1):
            if any(all(not (u in c and v in c) for u, v in g.sorted_edges())
                   for c in (set(c) for c in combinations(range(1, g.n + 1), size))):
                max_is = size
                break
        assert len(exact_min_vc(g)) + max_is == g.n


class TestExactMaxClique:
    def test_edgeless_tie_break(self):
        assert exact_max_clique(build_graph(3, [])) == frozenset({1})

    def test_triangle_plus_isolated(self):
        g = build_graph(4, [(1, 2), (2, 3), (1, 3)])
        assert exact_max_clique(g) == frozenset({1, 2, 3})

    @given(graphs(max_n=10))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, g):
        clique = exact_max_clique(g)
        assert len(clique) == brute_max_clique_size(g.n, g.sorted_edges())

    @given(graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_complement_cover_identity(self, g):
        assert len(exact_max_clique(g)) + len(exact_min_vc(complement(g))) == g.n

    def test_clique_deeper_than_the_recursion_limit(self):
        n = 1100
        g = build_graph(n, [(u, v) for u in range(1, n + 1)
                            for v in range(u + 1, n + 1)])
        assert exact_max_clique(g) == frozenset(range(1, n + 1))

    def test_cliques_pinned(self):
        # 500 seeded graphs, n <= 30 at any density; the digest of their
        # cliques pins the search order and the tie-break
        rng = random.Random(500)
        cliques = []
        for _ in range(500):
            n = rng.randint(1, 30)
            density = rng.random()
            g = build_graph(n, [(u, v) for u in range(1, n + 1)
                                for v in range(u + 1, n + 1)
                                if rng.random() < density])
            cliques.append(sorted(exact_max_clique(g)))
        digest = hashlib.sha256(json.dumps(cliques).encode()).hexdigest()
        assert digest == ("aa3cd413ca8a1f8e9e19a05d1c6128e4"
                          "1406f899e53755072a151c42352ea846")


class TestEnumerate:
    """The brute-force reference the exact solvers are checked against."""

    def test_single_edge_both_endpoints(self):
        inst = Instance(build_graph(2, [(1, 2)]), make_partition(2, [1, 2]),
                        Budgets((1, 1)))
        assert brute_optima(inst) == {frozenset({1}), frozenset({2})}

    def test_single_edge_one_budget(self):
        inst = Instance(build_graph(2, [(1, 2)]), make_partition(2, [1, 2]),
                        Budgets((1, 0)))
        assert brute_optima(inst) == {frozenset({1})}

    def test_triangle_all_pairs(self):
        assert brute_optima(triangle_instance()) == {
            frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}

    def test_matches_independent_brute_force(self):
        rng = SplitMix64(2024)
        for _ in range(40):
            n = 2 + rng.next_below(7)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            edges = [e for e in pairs if rng.next_float() < 0.5]
            part = [1 + rng.next_below(min(3, n)) for _ in range(n)]
            k = min(3, n)
            limits = tuple(rng.next_below(n + 1) for _ in range(k))
            inst = Instance(build_graph(n, [e for e in edges
                                            if part[e[0] - 1] != part[e[1] - 1]]),
                            make_partition(k, part), Budgets(limits))
            size, _ = brute_min_cvck(inst.graph.n, inst.graph.sorted_edges(),
                                     inst.partition.part_of, limits)
            res = exact_cvck(inst)
            assert (res.size if res.feasible else None) == size
            if res.feasible:
                assert is_vertex_cover(inst.graph, res.cover)
                assert respects_budgets(inst, res.cover)
