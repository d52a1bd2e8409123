"""One dispatcher from an algorithm name to a solve outcome.

`solve(inst, algo)` runs the heuristic (cvck), the exact oracle (exact) or
the matching 2-approximation (2approx) and returns the JSON object
`kpcover solve` prints, keys in this order:

    algo, status, cover, size, per_part_usage, [effort], wall_ms[, budget_violation]

The effort key is op_count for cvck and nodes_explored for exact; 2approx
has none, ignores budgets, and reports budget_violation instead. An
infeasible exact result has `cover: []`, `size: null` and
`per_part_usage: null`. Every algorithm raises InstanceInvalidError for an
instance that fails validate_instance. wall_ms times the solver call and
the few attribute reads that unpack its result; for every algorithm it
includes exactly one validate_instance.
"""

from __future__ import annotations

import time
from typing import Any

from .approx import two_approx_vc
from .exact import INFEASIBLE, exact_cvck
from .graph import (Instance, per_part_usage, respects_budgets,
                    validate_instance)
from .heuristic import SUCCESS, solve_cvck

ALGOS = ("cvck", "exact", "2approx")


def solve(inst: Instance, algo: str) -> dict[str, Any]:
    """Run one of ALGOS on inst; ValueError for any other name."""
    if algo not in ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGOS}")
    t0 = time.perf_counter()
    if algo == "cvck":
        res = solve_cvck(inst)
        status, cover = res.status, res.cover
        effort = {"op_count": res.op_count}
    elif algo == "exact":
        res = exact_cvck(inst)
        status, cover = res.status, res.cover or frozenset()
        effort = {"nodes_explored": res.nodes_explored}
    else:  # solve_cvck and exact_cvck validate their input
        validate_instance(inst).check()
        cover = two_approx_vc(inst.graph)
        status, effort = SUCCESS, {}
    wall_ms = (time.perf_counter() - t0) * 1000.0

    size = None if status == INFEASIBLE else len(cover)
    usage = None if size is None else list(per_part_usage(inst.partition, cover))
    fields = {"algo": algo, "status": status, "cover": sorted(cover),
              "size": size, "per_part_usage": usage, **effort, "wall_ms": wall_ms}
    if algo == "2approx":
        fields["budget_violation"] = not respects_budgets(inst, cover)
    return fields
