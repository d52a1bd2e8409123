"""Benchmark harness: ensemble runs, per-record CSV, and summary metrics.

One record per (instance, algorithm); the summary is computed from the
records alone. Fixed flags reproduce the CSV byte for byte except the wall_ms
column, which is the only nondeterministic field; op_count is the portable
effort metric.
"""

from __future__ import annotations

import csv
import math
import statistics
from collections import Counter
from dataclasses import astuple, dataclass, fields
from typing import IO

from .errors import SpecInvalidError
from .generate import GenSpec, SplitMix64, gen_kpartite, gen_tree
from .heuristic import HEURISTIC_FAILURE
from .solvers import ALGOS, solve

DEFAULT_EXACT_CUTOFF = 22


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
    """One CSV row; size is None when the run found no cover."""
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


def run_bench(config: BenchConfig) -> tuple[list[BenchRecord], str]:
    """Generate, solve with every applicable algorithm, and summarize.

    Instance seeds are drawn from one SplitMix64 stream keyed by the config
    seed, in (size, trial) order, so the ensemble is reproducible. Records
    are emitted in (size, trial, cvck/exact/2approx) order. Returns the
    records and the summary text computed from them. Sizes must be at
    least 1 and distinct, because an instance id names only its size and
    trial, and trials at least 1, so that the ensemble is not empty.
    """
    if any(n < 1 for n in config.sizes):
        raise SpecInvalidError(f"sizes must be >= 1, got {list(config.sizes)}")
    if len(set(config.sizes)) < len(config.sizes):
        raise SpecInvalidError(f"repeated size in sizes {list(config.sizes)}")
    if config.trials < 1:
        raise SpecInvalidError(f"trials must be >= 1, got {config.trials}")
    master = SplitMix64(config.seed)
    records: list[BenchRecord] = []

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
            optimum = oracle["size"] if oracle is not None else None
            for algo, res in results.items():
                # a heuristic failure's partial cover is not a cover
                size = None if res["status"] == HEURISTIC_FAILURE else res["size"]
                gap = (size - optimum
                       if size is not None and optimum is not None else None)
                records.append(BenchRecord(**base, algo=algo, status=res["status"],
                                           size=size, optimum=optimum, gap=gap,
                                           op_count=res.get("op_count"),
                                           wall_ms=res["wall_ms"]))

    return records, _summary_text(config, records)


def _summary_text(config: BenchConfig, records: list[BenchRecord]) -> str:
    cvck = [r for r in records if r.algo == "cvck"]  # one per instance
    evaluated = sum(1 for r in records if r.algo == "exact")
    feasible = [r for r in cvck if r.optimum is not None]
    # a tree ensemble reads neither: its rows have no density and their own k
    density, k = ("", "") if config.tree else (f" density={config.density}", f" k={config.k}")
    lines = [
        f"ensemble: sizes={list(config.sizes)} trials={config.trials}{density} "
        f"budget_mode={config.budget_mode} tree={config.tree}{k} seed={config.seed}",
        f"instances: {len(cvck)} (oracle evaluated: {evaluated}, "
        f"oracle feasible: {len(feasible)})",
    ]
    # with the oracle on every instance, count successes where a cover exists
    pool, denominator = ((feasible, "oracle-feasible") if evaluated == len(cvck)
                         else (cvck, "all"))
    if pool:
        rate = sum(1 for r in pool if r.size is not None) / len(pool)
        lines.append(f"heuristic success_rate: {rate:.4f} "
                     f"(denominator: {denominator})")
    gaps = Counter(r.gap for r in cvck if r.gap is not None)
    lines.append(f"gap histogram (heuristic vs optimum): {dict(sorted(gaps.items()))}")
    if config.tree and feasible:
        hits = sum(1 for r in feasible if r.gap is not None and r.gap <= 1)
        lines.append(f"tree_claim_rate (size <= optimum+1): {hits / len(feasible):.4f}")
    sizes = sorted({r.n for r in cvck})
    means = [statistics.fmean(r.op_count for r in cvck if r.n == n) for n in sizes]
    lines.append(f"mean op_count by n: "
                 f"{ {n: round(v, 1) for n, v in zip(sizes, means)} }")
    if len(sizes) >= 2:
        slope, r2 = loglog_slope(sizes, means)
        lines.append(f"scaling: slope={slope:.3f} r2={r2:.4f}")
    return "\n".join(lines) + "\n"


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
    """Header from BenchRecord's fields, one row per record; None is blank."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(f.name for f in fields(BenchRecord))
    writer.writerows(astuple(r) for r in records)
