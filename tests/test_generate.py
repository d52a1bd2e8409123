"""Seeded generators: determinism, validity, and distribution structure."""

from __future__ import annotations

import importlib.util
import math
import tracemalloc
from pathlib import Path

import pytest

from kpcover import (GenSpec, SpecInvalidError, SplitMix64, complement,
                     derive_budgets, exact_cvck, exact_min_vc,
                     gen_complete_kpartite, gen_kpartite, gen_tree,
                     parse_budget_mode, per_part_usage, serialize_instance,
                     validate_instance)
from kpcover.generate import _LANES, even_part_sizes


def inter_part_pairs(n: int, k: int) -> int:
    return (n * n - sum(size * size for size in even_part_sizes(n, k))) // 2


def _unxorshift(y: int, shift: int) -> int:
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def seed_drawing(z: int, i: int) -> int:
    """A seed whose SplitMix64 stream outputs z at draw i (counting from 0),
    found by inverting the finalizer."""
    m = 2 ** 64
    x = _unxorshift(z, 31) * pow(0x94D049BB133111EB, -1, m) % m
    x = _unxorshift(x, 27) * pow(0xBF58476D1CE4E5B9, -1, m) % m
    seed = (_unxorshift(x, 30) - (i + 1) * 0x9E3779B97F4A7C15) % m
    rng = SplitMix64(seed)
    draws = [rng.next_u64() for _ in range(i + 1)]
    assert draws[i] == z
    return seed


class TestSplitMix64:
    def test_reference_stream_seed_zero(self):
        # frozen from an independent C implementation of the same generator
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535, 7960286522194355700, 487617019471545679]

    def test_reference_stream_seed_42(self):
        rng = SplitMix64(42)
        assert [rng.next_u64() for _ in range(3)] == [
            13679457532755275413, 2949826092126892291, 5139283748462763858]

    def test_float_in_unit_interval(self):
        rng = SplitMix64(7)
        vals = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in vals)

    def test_next_below_range_and_determinism(self):
        a = SplitMix64(99)
        b = SplitMix64(99)
        xs = [a.next_below(7) for _ in range(500)]
        assert xs == [b.next_below(7) for _ in range(500)]
        assert set(xs) <= set(range(7))
        assert len(set(xs)) == 7  # 500 draws hit every residue

    @pytest.mark.parametrize("bound", [0, -3])
    def test_next_below_rejects_an_empty_range(self, bound):
        rng = SplitMix64(99)
        with pytest.raises(ValueError, match=r"^bound must be positive$"):
            rng.next_below(bound)
        assert rng.state == 99  # nothing was drawn


class TestGenKPartite:
    def test_density_zero_is_edgeless(self):
        inst = gen_kpartite(GenSpec(n=12, k=3, density=0.0, seed=5))
        assert inst.graph.m == 0

    def test_density_one_singleton_parts_is_complete(self):
        inst = gen_kpartite(GenSpec(n=5, k=5, density=1.0, seed=5))
        assert inst.graph.m == 5 * 4 // 2

    def test_deterministic_for_fixed_seed(self):
        spec = GenSpec(n=20, k=4, density=0.5, seed=123)
        assert serialize_instance(gen_kpartite(spec)) == \
            serialize_instance(gen_kpartite(spec))

    def test_different_seeds_differ(self):
        a = gen_kpartite(GenSpec(n=20, k=4, density=0.5, seed=1))
        b = gen_kpartite(GenSpec(n=20, k=4, density=0.5, seed=2))
        assert a.graph.sorted_edges() != b.graph.sorted_edges()

    def test_even_split_remainder_to_early_parts(self):
        inst = gen_kpartite(GenSpec(n=11, k=3, density=0.2, seed=9))
        sizes = [len(inst.partition.parts[p]) for p in (1, 2, 3)]
        assert sizes == [4, 4, 3]

    def test_outputs_validate(self):
        for seed in range(30):
            inst = gen_kpartite(GenSpec(n=15, k=3, density=0.4, seed=seed))
            assert validate_instance(inst).ok

    def test_bipartite_has_no_odd_cycle(self):
        # independent 2-coloring check by breadth-first search
        for seed in range(10):
            inst = gen_kpartite(GenSpec(n=14, k=2, density=0.5, seed=seed))
            g = inst.graph
            color = {}
            for start in g.vertices():
                if start in color:
                    continue
                color[start] = 0
                queue = [start]
                while queue:
                    u = queue.pop()
                    for w in g.adjacency[u]:
                        if w not in color:
                            color[w] = 1 - color[u]
                            queue.append(w)
                        else:
                            assert color[w] != color[u]

    @pytest.mark.parametrize("density", [0.0, 5e-324, 0.1, 0.5, 1 - 2 ** -53, 1.0])
    def test_draws_match_the_reference_stream(self, density):
        # the documented draw order, spelled out with the SplitMix64 class
        small = [((n, k), (0, 1, 42, 2 ** 64 - 1, -7))
                 for n, k in ((1, 1), (7, 1), (6, 6), (11, 3), (14, 4), (9, 2))]
        # gen_kpartite draws _LANES pairs per batch. These specs end a batch
        # exactly, one draw past it, one short of the second, and past the
        # third; their parts are uneven. No even split has _LANES - 1 pairs.
        batched = [((65, 33), _LANES), ((66, 17), _LANES + 1),
                   ((92, 31), 2 * _LANES - 1), ((112, 51), 3 * _LANES + 1)]
        for (n, k), pairs in batched:
            assert inter_part_pairs(n, k) == pairs and n % k
        seeds = (0, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5, -7, -2 ** 70)
        # draws on either side of the edge threshold, at a batch's first and
        # last lanes: next_float() < density iff the draw is below `limit`
        limit = math.ceil(density * 2 ** 53) << 11
        crafted = tuple(seed_drawing(z, i)
                        for z in {0, limit - 1, limit, 2 ** 64 - 1} if 0 <= z < 2 ** 64
                        for i in (0, 1, _LANES - 1, _LANES, 2 * _LANES - 2))
        cases = (small + [(spec, seeds) for spec, _ in batched]
                 + [((92, 31), crafted), ((200, 4), (41,))])
        for (n, k), spec_seeds in cases:
            for seed in spec_seeds:
                inst = gen_kpartite(GenSpec(n=n, k=k, density=density, seed=seed))
                part_of = inst.partition.part_of
                rng = SplitMix64(seed)
                expected = [(u, v)
                            for u in range(1, n + 1)
                            for v in range(u + 1, n + 1)
                            if part_of[u] != part_of[v] and rng.next_float() < density]
                assert list(inst.graph.sorted_edges()) == expected, (n, k, seed)

    def test_draws_stream_in_memory_independent_of_pair_count(self):
        # 1,000,000 inter-part pairs and no edges: the draws must not be held
        # all at once, so the peak stays under one byte per pair
        spec = GenSpec(n=2000, k=2, density=0.0, seed=3)
        assert inter_part_pairs(spec.n, spec.k) == 1_000_000
        tracemalloc.start()
        try:
            inst = gen_kpartite(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.graph.m == 0
        assert peak < 1_000_000, peak

    def test_spec_validation(self):
        with pytest.raises(SpecInvalidError):
            gen_kpartite(GenSpec(n=3, k=4, density=0.5, seed=1))
        with pytest.raises(SpecInvalidError):
            gen_kpartite(GenSpec(n=3, k=2, density=1.5, seed=1))
        with pytest.raises(SpecInvalidError):
            gen_kpartite(GenSpec(n=3, k=2, density=0.5, seed=1, budget_mode="bogus"))


class TestBudgetModes:
    def test_parse(self):
        assert parse_budget_mode("exact") == ("exact", None, None)
        assert parse_budget_mode("slack:2") == ("slack", 2, None)
        assert parse_budget_mode("fixed:1,0,2") == ("fixed", None, (1, 0, 2))
        for bad in ("slack:x", "slack:-1", "fixed:a", "whatever",
                    "slack:1_0", "slack:+1", "slack: 1", "slack:1 ", "slack:-",
                    "slack:\u0663", "fixed:\u0663,1,1", "fixed:1,+1",
                    "fixed:1, 2", "fixed:1_0,2", "fixed:1,,2"):
            with pytest.raises(SpecInvalidError):
                parse_budget_mode(bad)

    def test_negative_fixed_limit(self):
        with pytest.raises(SpecInvalidError, match=r"^fixed limits must be >= 0$"):
            parse_budget_mode("fixed:1,-1")

    def test_exact_mode_is_tightest_feasible(self):
        for seed in range(10):
            inst = gen_kpartite(GenSpec(n=10, k=3, density=0.5, seed=seed,
                                        budget_mode="exact"))
            usage = per_part_usage(inst.partition, exact_min_vc(inst.graph))
            assert inst.budgets.limits == usage
            res = exact_cvck(inst)
            assert res.feasible and res.size == sum(usage)

    def test_slack_mode_is_feasible_by_construction(self):
        for seed in range(15):
            inst = gen_kpartite(GenSpec(n=14, k=3, density=0.4, seed=seed,
                                        budget_mode="slack:0"))
            assert exact_cvck(inst).feasible

    def test_fixed_mode_arity_checked(self):
        inst = gen_kpartite(GenSpec(n=6, k=2, density=0.5, seed=3))
        with pytest.raises(SpecInvalidError):
            derive_budgets(inst.graph, inst.partition, "fixed:1,2,3")
        budgets = derive_budgets(inst.graph, inst.partition, "fixed:0,0")
        assert budgets.limits == (0, 0)


class TestGenTree:
    def test_single_vertex(self):
        inst = gen_tree(1, 7)
        assert inst.graph.m == 0 and inst.partition.k <= 2

    def test_two_vertices(self):
        inst = gen_tree(2, 7)
        assert inst.graph.sorted_edges() == ((1, 2),)
        assert inst.partition.part_of[1] != inst.partition.part_of[2]

    def test_tree_structure(self):
        # n-1 edges, connected, acyclic: verified with an independent
        # union-find instead of the package's graph utilities
        for seed in range(25):
            inst = gen_tree(12, seed)
            g = inst.graph
            assert g.m == g.n - 1
            parent = list(range(g.n + 1))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in g.sorted_edges():
                ru, rv = find(u), find(v)
                assert ru != rv  # acyclic
                parent[ru] = rv
            assert len({find(v) for v in g.vertices()}) == 1  # connected

    def test_partition_is_valid_and_budgets_feasible(self):
        for seed in range(15):
            inst = gen_tree(10, seed)
            assert validate_instance(inst).ok
            assert exact_cvck(inst).feasible

    def test_deterministic(self):
        assert serialize_instance(gen_tree(9, 3)) == serialize_instance(gen_tree(9, 3))

    def test_bad_n(self):
        with pytest.raises(SpecInvalidError):
            gen_tree(0, 1)


class TestCompleteKPartite:
    def test_two_singletons_is_k2(self):
        inst = gen_complete_kpartite((1, 1))
        assert inst.graph.sorted_edges() == ((1, 2),)

    def test_three_singletons_is_triangle(self):
        inst = gen_complete_kpartite((1, 1, 1))
        assert inst.graph.m == 3

    def test_k23(self):
        inst = gen_complete_kpartite((2, 3))
        assert inst.graph.m == 6
        assert len(exact_min_vc(inst.graph)) == 2
        assert inst.budgets.limits == (2, 3)

    def test_bad_sizes(self):
        with pytest.raises(SpecInvalidError):
            gen_complete_kpartite((2, 0))
        with pytest.raises(SpecInvalidError):
            gen_complete_kpartite(())


def _large_specs():
    """The gen_kpartite specs whose text scripts/exact_digest.py pins as its
    large digest."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "exact_digest.py"
    spec = importlib.util.spec_from_file_location("exact_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LARGE_SPECS


SMALL_SPECS = tuple(GenSpec(n=n, k=k, density=density, seed=n * 10 + k)
                    for n in (1, 2, 7, 12) for k in range(1, min(n, 4) + 1)
                    for density in (0.0, 0.3, 1.0))


class TestSortedBuilder:
    """The generators and complement fill their neighbour lists without
    build_graph's checks and skip the ordering rule; the result must be the
    graph of its own pair set, in sorted_edges() and in adjacency."""

    @staticmethod
    def assert_as_pair_set(g):
        pairs = set(g.sorted_edges())
        nbrs = [set() for _ in range(g.n + 1)]
        for u, v in pairs:
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert all(u < v for u, v in pairs)
        assert g.sorted_edges() == tuple(sorted(pairs))
        assert g.adjacency == tuple(tuple(sorted(s)) for s in nbrs)

    @pytest.mark.parametrize("spec", SMALL_SPECS + _large_specs())
    def test_gen_kpartite_and_its_complement(self, spec):
        g = gen_kpartite(spec).graph
        self.assert_as_pair_set(g)
        self.assert_as_pair_set(complement(g))

    @pytest.mark.parametrize("sizes", [(1,), (1, 1), (3,), (2, 3), (4, 1, 5), (1, 2, 3, 4, 5)])
    def test_gen_complete_kpartite_and_its_complement(self, sizes):
        g = gen_complete_kpartite(sizes).graph
        self.assert_as_pair_set(g)
        self.assert_as_pair_set(complement(g))
