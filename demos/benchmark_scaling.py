#!/usr/bin/env python3
"""Measure how the heuristic's operation count and solve time grow with size.

Runs a seeded ensemble at several sizes and prints, per size, the mean
op_count next to the mean solve time and the number of trials that ended in
each status, then the log-log slope of each mean against n. On dense inputs
the count grows roughly quadratically. op_count is a deterministic count of
the documented operations, not a time proxy: the lookahead's popcounts and
sorts take time it does not count, so the time slope is measured, not
inferred from the count.
"""

import time
from collections import Counter

from kpcover import GenSpec, gen_kpartite, loglog_slope, solve_cvck

sizes = (40, 80, 160, 320)
trials = 5
seed = 99

mean_counts = []
mean_ms = []
for n in sizes:
    counts = []
    ms = []
    statuses = Counter()
    for t in range(trials):
        inst = gen_kpartite(GenSpec(n=n, k=4, density=0.5,
                                    seed=seed + 1000 * n + t,
                                    budget_mode="slack:1"))
        t0 = time.perf_counter()
        result = solve_cvck(inst)
        ms.append((time.perf_counter() - t0) * 1e3)
        counts.append(result.op_count)
        statuses[result.status] += 1
    mean_counts.append(sum(counts) / len(counts))
    mean_ms.append(sum(ms) / len(ms))
    tally = ", ".join(f"{count} {status}" for status, count in sorted(statuses.items()))
    print(f"n={n:4d}  mean op_count={mean_counts[-1]:12.1f}  "
          f"mean solve={mean_ms[-1]:9.2f} ms  ({trials} trials: {tally})")

slope, r2 = loglog_slope(list(sizes), mean_counts)
print(f"\nfitted op_count growth exponent: {slope:.3f}  (r2={r2:.4f})")
slope, r2 = loglog_slope(list(sizes), mean_ms)
print(f"fitted solve-time growth exponent: {slope:.3f}  (r2={r2:.4f})")
