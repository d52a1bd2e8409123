"""Acceptance suite: one test per shipped claim, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines and
the reported (non-gated) reproduction metrics. Every ensemble is seeded, so
reruns measure identical instances.
"""

from __future__ import annotations

import json
from itertools import combinations

from kpcover import (Budgets, GenSpec, Instance, SplitMix64, build_graph,
                     clique_cert_to_cover, complement, cover_cert_to_clique,
                     exact_cvck, exact_max_clique, exact_min_vc,
                     gen_complete_kpartite, gen_kpartite, gen_tree,
                     is_clique, is_vertex_cover, loglog_slope,
                     make_partition, matching_vertex_cover, parse_instance,
                     respects_budgets, serialize_instance, solve_cvck)
from kpcover.cli import main
from kpcover.generate import even_part_sizes

from oracles import all_graphs, brute_optima


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def mixed_instance(rng: SplitMix64, max_n: int, exact_mode_max_n: int = 14):
    """One instance from the mixed ensemble: n, k, density, budget mode all drawn."""
    n = 4 + rng.next_below(max_n - 3)
    k = min(n, 2 + rng.next_below(5))
    density = (0.1, 0.3, 0.5, 0.8)[rng.next_below(4)]
    roll = rng.next_below(10)
    if roll < 5:
        mode = "slack:1"
    elif roll < 7:
        mode = "slack:0"
    elif roll == 7:
        mode = "slack:2"
    elif roll == 8:
        sizes = even_part_sizes(n, k)
        mode = "fixed:" + ",".join(str(rng.next_below(s + 1)) for s in sizes)
    else:
        mode = "exact" if n <= exact_mode_max_n else "slack:1"
    return gen_kpartite(GenSpec(n=n, k=k, density=density,
                                seed=rng.next_u64(), budget_mode=mode))


def random_graph(rng: SplitMix64, n: int, density: float):
    edges = [(u, v)
             for u in range(1, n + 1)
             for v in range(u + 1, n + 1)
             if rng.next_float() < density]
    return build_graph(n, edges)


def test_criterion_1_validity_invariant():
    rng = SplitMix64(0xC0FFEE01)
    trials = 10_000
    violations = 0
    successes = 0
    for _ in range(trials):
        inst = mixed_instance(rng, max_n=40)
        res = solve_cvck(inst)
        if res.success:
            successes += 1
            if not (is_vertex_cover(inst.graph, res.cover)
                    and respects_budgets(inst, res.cover)):
                violations += 1
    report(1, "validity-invariant", violations == 0,
           f"{trials} mixed instances (n<=40), {successes} successes, "
           f"{violations} invalid covers")


def test_criterion_2_oracle_equivalence():
    rng = SplitMix64(0xC0FFEE02)
    mismatches = 0
    trials = 2_000
    for _ in range(trials):
        inst = mixed_instance(rng, max_n=12)
        res = exact_cvck(inst)
        optima = brute_optima(inst)
        if res.feasible:
            ok = (optima and res.size == len(next(iter(optima)))
                  and res.cover in optima)
        else:
            ok = optima == set()
        mismatches += 0 if ok else 1

    n4_checked = 0
    for edges in all_graphs(4):
        inst = Instance(build_graph(4, edges), make_partition(4, [1, 2, 3, 4]),
                        Budgets(tuple(rng.next_below(3) for _ in range(4))))
        res = exact_cvck(inst)
        optima = brute_optima(inst)
        agree = ((res.cover in optima and res.size == len(next(iter(optima))))
                 if res.feasible else optima == set())
        mismatches += 0 if agree else 1
        n4_checked += 1

    report(2, "oracle-equivalence", mismatches == 0,
           f"{trials} random n<=12 + {n4_checked} exhaustive n=4 graphs, "
           f"{mismatches} mismatches")


def test_criterion_3_clique_cover_theorem():
    failures = 0
    checked = 0
    for n in range(1, 6):
        for edges in all_graphs(n):
            g = build_graph(n, edges)
            if len(exact_max_clique(g)) + len(exact_min_vc(complement(g))) != n:
                failures += 1
            checked += 1
    rng = SplitMix64(0xC0FFEE03)
    for _ in range(500):
        n = 1 + rng.next_below(10)
        g = random_graph(rng, n, 0.5)
        if len(exact_max_clique(g)) + len(exact_min_vc(complement(g))) != n:
            failures += 1
        checked += 1
    report(3, "clique-cover-theorem", failures == 0,
           f"{checked} graphs (exhaustive n<=5 plus 500 random n<=10), "
           f"{failures} identity violations")


def test_criterion_4_certificate_round_trip():
    failures = 0
    cliques_checked = 0
    for n in range(1, 6):
        for edges in all_graphs(n):
            g = build_graph(n, edges)
            comp = complement(g)
            for size in range(n + 1):
                for combo in combinations(range(1, n + 1), size):
                    s = frozenset(combo)
                    if not is_clique(g, s):
                        continue
                    cover = clique_cert_to_cover(g, s)
                    sound = is_vertex_cover(comp, cover)
                    back = cover_cert_to_clique(g, cover)
                    if not (sound and back == s):
                        failures += 1
                    cliques_checked += 1
    report(4, "certificate-round-trip", failures == 0,
           f"{cliques_checked} cliques across all graphs n<=5, {failures} failures")


def test_criterion_5_two_approx_bound():
    rng = SplitMix64(0xC0FFEE05)
    violations = 0
    for _ in range(1_000):
        n = 1 + rng.next_below(20)
        density = (0.1, 0.3, 0.5, 0.8)[rng.next_below(4)]
        g = random_graph(rng, n, density)
        cover, matching = matching_vertex_cover(g)
        endpoints = [v for e in matching for v in e]
        ok = (is_vertex_cover(g, cover)
              and len(endpoints) == len(set(endpoints))
              and len(cover) == 2 * len(matching)
              and len(cover) <= 2 * len(exact_min_vc(g)))
        violations += 0 if ok else 1
    report(5, "two-approx-bound", violations == 0,
           f"1000 random graphs n<=20, {violations} violations")


def test_criterion_6_tree_claim():
    rng = SplitMix64(0xC0FFEE06)
    invalid = 0
    feasible = 0
    within_one = 0
    for _ in range(1_000):
        n = 2 + rng.next_below(24)
        inst = gen_tree(n, rng.next_u64())
        res = solve_cvck(inst)
        if res.success and not (is_vertex_cover(inst.graph, res.cover)
                                and respects_budgets(inst, res.cover)):
            invalid += 1
        oracle = exact_cvck(inst)
        if oracle.feasible:
            feasible += 1
            if res.success and res.size <= oracle.size + 1:
                within_one += 1
    rate = within_one / feasible if feasible else 0.0
    # the fraction is a reported reproduction; only cover validity is gated
    report(6, "tree-claim", invalid == 0,
           f"tree_claim_rate={rate:.4f} over {feasible} feasible trees "
           f"(expected >= 0.90, reported not gated), {invalid} invalid covers")


def test_criterion_7_success_rate_report():
    rng = SplitMix64(0xC0FFEE07)
    invalid = 0
    cells = {}
    for density in (0.1, 0.3, 0.5):
        feasible = 0
        successes = 0
        for _ in range(300):
            n = 6 + rng.next_below(17)
            inst = gen_kpartite(GenSpec(n=n, k=min(3, n), density=density,
                                        seed=rng.next_u64(), budget_mode="slack:1"))
            res = solve_cvck(inst)
            if res.success and not (is_vertex_cover(inst.graph, res.cover)
                                    and respects_budgets(inst, res.cover)):
                invalid += 1
            if exact_cvck(inst).feasible:
                feasible += 1
                if res.success:
                    successes += 1
        cells[density] = successes / feasible if feasible else 0.0
    rates = ", ".join(f"d={d}: {r:.4f}" for d, r in cells.items())
    report(7, "success-rate-report", invalid == 0,
           f"success rate on oracle-feasible instances per density cell "
           f"({rates}); reported not gated")


def test_criterion_8_complexity_scaling():
    sizes = (50, 100, 200, 400)
    trials = 3
    rng = SplitMix64(0xC0FFEE08)
    means = []
    for n in sizes:
        counts = []
        for _ in range(trials):
            inst = gen_kpartite(GenSpec(n=n, k=4, density=0.5,
                                        seed=rng.next_u64(), budget_mode="slack:1"))
            counts.append(solve_cvck(inst).op_count)
        means.append(sum(counts) / len(counts))
    slope, r2 = loglog_slope(list(sizes), means)
    ok = 1.5 < slope < 3.2 and r2 >= 0.95
    report(8, "complexity-scaling", ok,
           f"log-log slope={slope:.3f} (window 1.5..3.2), r2={r2:.4f} "
           f"(floor 0.95), mean op_counts={[round(m) for m in means]}")


def test_criterion_9_reproducibility(tmp_path, capsys):
    gen_flags = ["gen", "--n", "18", "--k", "3", "--density", "0.5", "--seed", "1234"]
    assert main(gen_flags) == 0
    first = capsys.readouterr().out
    assert main(gen_flags) == 0
    gen_ok = capsys.readouterr().out == first

    bench_flags = ["bench", "--sizes", "8,12", "--trials", "3", "--density",
                   "0.4", "--seed", "77"]
    a_path, b_path = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(bench_flags + ["--out", a_path]) == 0
    assert main(bench_flags + ["--out", b_path]) == 0
    capsys.readouterr()

    def strip_wall(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    bench_ok = strip_wall((tmp_path / "a.csv").read_text()) == \
        strip_wall((tmp_path / "b.csv").read_text())
    report(9, "reproducibility", gen_ok and bench_ok,
           f"gen bytes identical: {gen_ok}; bench CSV identical minus "
           f"wall_ms: {bench_ok}")


def test_criterion_10_format_round_trip():
    rng = SplitMix64(0xC0FFEE10)
    failures = 0
    total = 0
    for _ in range(700):
        inst = mixed_instance(rng, max_n=30)
        failures += 0 if parse_instance(serialize_instance(inst)) == inst else 1
        total += 1
    for _ in range(200):
        inst = gen_tree(1 + rng.next_below(25), rng.next_u64())
        failures += 0 if parse_instance(serialize_instance(inst)) == inst else 1
        total += 1
    for _ in range(100):
        sizes = tuple(1 + rng.next_below(5)
                      for _ in range(1 + rng.next_below(4)))
        inst = gen_complete_kpartite(sizes)
        failures += 0 if parse_instance(serialize_instance(inst)) == inst else 1
        total += 1
    report(10, "format-round-trip", failures == 0,
           f"{total} serialize/parse round-trips, {failures} mismatches")


def test_solve_json_shape_stable(tmp_path, capsys):
    # companion check: the CLI JSON surface carries the documented fields
    path = tmp_path / "inst.kpvc"
    path.write_text("p kpvc 3 2 2\nv 1 1\nv 2 2\nv 3 1\nb 1 0\nb 2 1\ne 1 2\ne 2 3\n")
    assert main(["solve", str(path), "--algo", "cvck"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"algo", "status", "cover", "size", "per_part_usage",
                        "op_count", "wall_ms"}
