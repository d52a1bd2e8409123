"""Benchmark harness: ensemble runs, per-record CSV, and summary metrics.

One record per (instance, algorithm). Fixed flags reproduce the CSV byte for
byte except the wall_ms column, which is the only nondeterministic field;
op_count is the portable effort metric.
"""

from __future__ import annotations

import csv
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import IO

from .generate import GenSpec, SplitMix64, gen_kpartite, gen_tree
from .solvers import ALGOS, solve

DEFAULT_EXACT_CUTOFF = 22

BENCH_CSV_COLUMNS = ("instance_id", "n", "k", "density", "seed", "budget_mode",
                     "algo", "status", "size", "optimum", "gap", "op_count",
                     "wall_ms")


@dataclass(frozen=True)
class BenchConfig:
    sizes: tuple[int, ...]
    trials: int
    density: float
    seed: int
    budget_mode: str = "slack:1"
    k: int = 3
    tree: bool = False
    exact_cutoff: int = DEFAULT_EXACT_CUTOFF


@dataclass(frozen=True)
class BenchRecord:
    instance_id: str
    n: int
    k: int
    density: float | None
    seed: int
    budget_mode: str
    algo: str
    status: str
    size: int | None
    optimum: int | None
    gap: int | None
    op_count: int | None
    wall_ms: float


@dataclass
class BenchSummary:
    config: BenchConfig
    instances: int = 0
    oracle_evaluated: int = 0
    oracle_feasible: int = 0
    heuristic_successes: int = 0
    success_rate: float | None = None
    success_denominator: str = "all"
    gap_histogram: dict[int, int] = field(default_factory=dict)
    tree_claim_rate: float | None = None
    scaling_slope: float | None = None
    scaling_r2: float | None = None
    mean_op_counts: dict[int, float] = field(default_factory=dict)


def run_bench(config: BenchConfig) -> tuple[list[BenchRecord], BenchSummary]:
    """Generate, solve with every applicable algorithm, and summarize.

    Instance seeds are drawn from one SplitMix64 stream keyed by the config
    seed, in (size, trial) order, so the ensemble is reproducible. Records
    are emitted in (size, trial, cvck/exact/2approx) order.
    """
    master = SplitMix64(config.seed)
    records: list[BenchRecord] = []
    summary = BenchSummary(config=config)
    per_instance: list[dict] = []

    for n in config.sizes:
        for trial in range(config.trials):
            inst_seed = master.next_u64()
            if config.tree:
                instance = gen_tree(n, inst_seed, config.budget_mode)
                instance_id = f"tree-n{n}-t{trial}"
                density = None
            else:
                instance = gen_kpartite(GenSpec(n=n, k=min(config.k, n),
                                                density=config.density,
                                                seed=inst_seed,
                                                budget_mode=config.budget_mode))
                instance_id = f"kp-n{n}-t{trial}"
                density = config.density
            base = dict(instance_id=instance_id, n=n, k=instance.partition.k,
                        density=density, seed=inst_seed,
                        budget_mode=config.budget_mode)

            results = {algo: solve(instance, algo) for algo in ALGOS
                       if algo != "exact" or n <= config.exact_cutoff}
            oracle = results.get("exact")
            optimum = oracle.size if oracle is not None else None
            for algo, res in results.items():
                size = res.size if res.ok else None
                gap = (size - optimum
                       if size is not None and optimum is not None else None)
                records.append(BenchRecord(**base, algo=algo, status=res.status,
                                           size=size, optimum=optimum, gap=gap,
                                           op_count=res.fields.get("op_count"),
                                           wall_ms=res.fields["wall_ms"]))
            cvck = results["cvck"]
            per_instance.append(dict(n=n, oracle=oracle is not None,
                                     optimum=optimum, success=cvck.ok,
                                     size=cvck.size if cvck.ok else None,
                                     op_count=cvck.fields["op_count"]))

    _summarize(summary, per_instance)
    return records, summary


def _summarize(summary: BenchSummary, per_instance: list[dict]) -> None:
    config = summary.config
    summary.instances = len(per_instance)
    summary.oracle_evaluated = sum(1 for r in per_instance if r["oracle"])
    summary.oracle_feasible = sum(1 for r in per_instance if r["optimum"] is not None)
    summary.heuristic_successes = sum(1 for r in per_instance if r["success"])

    if summary.oracle_evaluated == summary.instances and summary.instances > 0:
        summary.success_denominator = "oracle-feasible"
        feas = [r for r in per_instance if r["optimum"] is not None]
        if feas:
            summary.success_rate = sum(1 for r in feas if r["success"]) / len(feas)
    elif summary.instances > 0:
        summary.success_denominator = "all"
        summary.success_rate = summary.heuristic_successes / summary.instances

    gaps = Counter(r["size"] - r["optimum"] for r in per_instance
                   if r["success"] and r["optimum"] is not None)
    summary.gap_histogram = dict(sorted(gaps.items()))

    if config.tree:
        feas = [r for r in per_instance if r["optimum"] is not None]
        if feas:
            hits = sum(1 for r in feas
                       if r["success"] and r["size"] <= r["optimum"] + 1)
            summary.tree_claim_rate = hits / len(feas)

    by_n: dict[int, list[int]] = {}
    for r in per_instance:
        by_n.setdefault(r["n"], []).append(r["op_count"])
    summary.mean_op_counts = {n: sum(v) / len(v) for n, v in sorted(by_n.items())}
    if len(summary.mean_op_counts) >= 2:
        slope, r2 = loglog_slope(list(summary.mean_op_counts.keys()),
                                 list(summary.mean_op_counts.values()))
        summary.scaling_slope = slope
        summary.scaling_r2 = r2


def loglog_slope(ns: list[int], values: list[float]) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(value) against log(n)."""
    x = [math.log(n) for n in ns]
    y = [math.log(v) for v in values]
    slope, intercept = statistics.linear_regression(x, y)
    mean_y = statistics.fmean(y)
    ss_res = sum((yi - (slope * xi + intercept)) ** 2 for xi, yi in zip(x, y))
    ss_tot = sum((yi - mean_y) ** 2 for yi in y)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, r2


def write_csv(records: list[BenchRecord], out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(BENCH_CSV_COLUMNS)
    for r in records:
        writer.writerow([
            r.instance_id, r.n, r.k,
            "" if r.density is None else repr(r.density),
            r.seed, r.budget_mode, r.algo, r.status,
            "" if r.size is None else r.size,
            "" if r.optimum is None else r.optimum,
            "" if r.gap is None else r.gap,
            "" if r.op_count is None else r.op_count,
            repr(r.wall_ms),
        ])


def summary_text(summary: BenchSummary) -> str:
    config = summary.config
    lines = [
        f"ensemble: sizes={list(config.sizes)} trials={config.trials} "
        f"density={config.density} budget_mode={config.budget_mode} "
        f"tree={config.tree} k={config.k} seed={config.seed}",
        f"instances: {summary.instances} "
        f"(oracle evaluated: {summary.oracle_evaluated}, "
        f"oracle feasible: {summary.oracle_feasible})",
    ]
    if summary.success_rate is not None:
        lines.append(f"heuristic success_rate: {summary.success_rate:.4f} "
                     f"(denominator: {summary.success_denominator})")
    lines.append(f"gap histogram (heuristic vs optimum): {summary.gap_histogram}")
    if summary.tree_claim_rate is not None:
        lines.append(f"tree_claim_rate (size <= optimum+1): {summary.tree_claim_rate:.4f}")
    means = {n: round(v, 1) for n, v in summary.mean_op_counts.items()}
    lines.append(f"mean op_count by n: {means}")
    if summary.scaling_slope is not None:
        lines.append(f"scaling: slope={summary.scaling_slope:.3f} "
                     f"r2={summary.scaling_r2:.4f}")
    return "\n".join(lines) + "\n"
