"""Workloads, the per-instance pipeline, and the check of its outputs.

Each instance goes through the public kpcover calls a user pays for, in a
fixed order: gen_kpartite, serialize_instance, parse_instance, then the
workload's solvers (exact_cvck when the workload has an oracle, solve_cvck,
two_approx_vc) on the parsed instance. Functions are looked up on the
kpcover module at call time, so a traced run can wrap them from outside.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 1


def import_kpcover():
    """Import kpcover from this checkout's src/ and from nowhere else."""
    package = SRC / "kpcover"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"kpbench: no kpcover sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kpcover
    if Path(kpcover.__file__).resolve().parent != package:
        raise SystemExit(f"kpbench: imported kpcover from {kpcover.__file__}, "
                         f"not from {package}")
    return kpcover


kp = import_kpcover()


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    density: float
    budget_mode: str
    oracle: bool


WORKLOADS = {w.name: w for w in (
    Workload("dense-slack", 200, 4, 0.5, "slack:1", False),
    Workload("sparse-oracle", 34, 4, 0.1, "slack:1", True),
    Workload("tight-small", 24, 3, 0.3, "exact", True),
)}


def instance_seeds(seed: int) -> Iterator[int]:
    """Instance seeds in the order run_bench draws them for one size."""
    master = kp.SplitMix64(seed)
    while True:
        yield master.next_u64()


@dataclass
class Outcome:
    generated: Any
    instance: Any
    text_bytes: int
    exact: Any
    cvck: Any
    approx: frozenset


def run_instance(w: Workload, inst_seed: int) -> Outcome:
    """The measured pipeline for one instance."""
    spec = kp.GenSpec(n=w.n, k=w.k, density=w.density, seed=inst_seed,
                      budget_mode=w.budget_mode)
    generated = kp.gen_kpartite(spec)
    text = kp.serialize_instance(generated)
    inst = kp.parse_instance(text)
    exact = kp.exact_cvck(inst) if w.oracle else None
    cvck = kp.solve_cvck(inst)
    approx = kp.two_approx_vc(inst.graph)
    return Outcome(generated, inst, len(text), exact, cvck, approx)


def check(out: Outcome) -> list[str]:
    """Problems with one instance's outputs; empty when they are correct."""
    problems = []
    inst, g = out.instance, out.instance.graph
    if inst != out.generated:
        problems.append("parse(serialize(x)) != x")
    h = out.cvck
    missed = tuple(e for e in g.sorted_edges()
                   if e[0] not in h.cover and e[1] not in h.cover)
    if h.uncovered_edges != missed:
        problems.append("cvck uncovered_edges are not the edges its cover misses")
    if h.success == bool(missed):
        problems.append(f"cvck status {h.status} with {len(missed)} missed edges")
    if h.per_part_usage != kp.per_part_usage(inst.partition, h.cover):
        problems.append("cvck per_part_usage does not match its cover")
    if h.success and not kp.respects_budgets(inst, h.cover):
        problems.append("cvck cover breaks a part budget")

    optimum = None
    e = out.exact
    if e is not None and e.feasible:
        optimum = e.size
        if e.size != len(e.cover) or not kp.is_vertex_cover(g, e.cover):
            problems.append("exact cover is not a vertex cover of its size")
        if not kp.respects_budgets(inst, e.cover):
            problems.append("exact cover breaks a part budget")
        if h.success and e.size > h.size:
            problems.append(f"exact size {e.size} > cvck size {h.size}")
    elif e is not None and h.success:
        problems.append("cvck found a cover the oracle calls infeasible")

    if not kp.is_vertex_cover(g, out.approx):
        problems.append("2approx result is not a vertex cover")
    # without an oracle the heuristic's cover bounds the unbudgeted optimum
    bound = optimum if optimum is not None else (h.size if h.success else None)
    if bound is not None and len(out.approx) > 2 * bound:
        problems.append(f"2approx size {len(out.approx)} > 2 * {bound}")
    return problems


def digest(out: Outcome) -> str:
    """Short hash of the solver outputs a speed-up must leave unchanged.

    nodes_explored is left out: a stronger bound may change it legitimately.
    """
    h = out.cvck
    fields: list[Any] = [h.status, sorted(h.cover), list(h.per_part_usage),
                         h.op_count]
    if out.exact is not None:
        fields += [out.exact.status, sorted(out.exact.cover or ())]
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:12]


def reference_digests(w: Workload, seed: int) -> list[str]:
    """Committed digests of the first instances for this seed, if any."""
    with open(REFERENCE_PATH) as f:
        reference = json.load(f)
    return reference["digests"][w.name].get(str(seed), "").split()

