"""Tests of the benchmark itself: python3 -m pytest kpbench -q"""

from __future__ import annotations

import ast
import dataclasses
import itertools
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from calibrate import REFERENCE_KERNEL_S, WINDOW, Calibrator
from pipeline import (DEFAULT_SEED, ROOT, WORKLOADS, check, digest,
                      instance_seeds, kp, reference_digests, run_instance)
from run import largest, measure_traced, per_layer
from tracing import TARGETS, Tracer

HERE = Path(__file__).resolve().parent
CROSS_CHECK_TRIALS = {"dense-slack": 3, "sparse-oracle": 10, "tight-small": 40}


def first_outcomes(name: str, count: int, seed: int = DEFAULT_SEED):
    w = WORKLOADS[name]
    return [run_instance(w, s)
            for s in itertools.islice(instance_seeds(seed), count)]


def test_corrupted_outputs_are_caught():
    out = first_outcomes("sparse-oracle", 1)[0]
    assert check(out) == []
    h = out.cvck
    assert h.success
    dropped = min(h.cover)
    bad_cover = dataclasses.replace(h, cover=h.cover - {dropped})
    assert check(dataclasses.replace(out, cvck=bad_cover))
    e = out.exact
    bad_exact = dataclasses.replace(e, cover=e.cover - {min(e.cover)})
    assert check(dataclasses.replace(out, exact=bad_exact))
    bad_approx = out.approx - {min(out.approx)}
    assert check(dataclasses.replace(out, approx=bad_approx))
    assert digest(dataclasses.replace(out, cvck=bad_cover)) != digest(out)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_default_seed_matches_reference(name):
    expected = reference_digests(WORKLOADS[name], DEFAULT_SEED)
    assert expected
    outs = first_outcomes(name, len(expected))
    assert [check(o) for o in outs] == [[]] * len(outs)
    assert [digest(o) for o in outs] == expected


def bench_rows(out) -> list[tuple]:
    """(algo, status, size, optimum, op_count) in run_bench's record order."""
    h, e = out.cvck, out.exact
    optimum = e.size if e is not None else None
    size = h.size if h.success else None
    rows = [("cvck", h.status, size, optimum, h.op_count)]
    if e is not None:
        rows.append(("exact", e.status, e.size, e.size, None))
    rows.append(("2approx", "Success", len(out.approx), optimum, None))
    return rows


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_matches_kpcover_bench(name):
    w = WORKLOADS[name]
    trials = CROSS_CHECK_TRIALS[name]
    config = kp.BenchConfig(sizes=(w.n,), trials=trials, density=w.density,
                            seed=DEFAULT_SEED, budget_mode=w.budget_mode,
                            k=w.k, exact_cutoff=w.n if w.oracle else 0)
    records, _ = kp.run_bench(config)
    theirs = [(r.algo, r.status, r.size, r.optimum, r.op_count) for r in records]
    ours = [row for o in first_outcomes(name, trials) for row in bench_rows(o)]
    assert ours == theirs


def test_calibration_scales_by_the_samples_in_and_around_an_interval():
    before = signal.getsignal(signal.SIGALRM)
    with Calibrator().ticking() as cal:
        time.sleep(0.05)
    assert cal.times
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    ref = REFERENCE_KERNEL_S
    cal.starts = [float(t) for t in range(4 * WINDOW)]  # one sample a second
    cal.times = [ref] * (2 * WINDOW) + [2 * ref] * (2 * WINDOW)
    # one fast sample inside, mostly fast ones around: reference speed
    assert cal.own(WINDOW - 0.5, WINDOW + 0.5) == pytest.approx(1 - ref)
    assert cal.scale(WINDOW - 0.5, WINDOW + 0.5) == pytest.approx(1 - ref)
    # WINDOW slow samples inside and mostly slow ones around: half speed
    t0, t1 = 2 * WINDOW - 0.5, 3 * WINDOW - 0.5
    assert cal.own(t0, t1) == pytest.approx(WINDOW * (1 - 2 * ref))
    assert cal.scale(t0, t1) == pytest.approx(cal.own(t0, t1) / 2)


def traced(name: str, count: int):
    seeds = itertools.islice(instance_seeds(DEFAULT_SEED), count)
    tracer, run, untraced = measure_traced(WORKLOADS[name], seeds, None, [])
    assert run.failed == untraced.failed == 0
    assert tracer.missing == []
    times = tracer.layer_times()
    return times, per_layer(tracer, times, run, untraced)


def test_trace_confirms_dense_slack_reason():
    times, m = traced("dense-slack", 2)
    assert m["heuristic.undo_tentative.calls"][0] == 0
    assert m["exact.exact_cvck.calls"][0] == 0
    assert largest(times, "heuristic.solve_cvck") == "heuristic.make_decision"


def test_trace_confirms_tight_small_reason():
    _, m = traced("tight-small", 200)
    assert m["heuristic.accept_ratio"][0] < 0.5
    assert m["graph.validate_instance.calls"][0] == 3


def test_trace_confirms_sparse_oracle_reason():
    times, _ = traced("sparse-oracle", 20)
    assert largest(times, None) == "exact.exact_cvck"


def test_tracer_restores_every_wrapped_attribute():
    before = [(m, p, _lookup(m, p)) for m, p, _ in TARGETS]
    with Tracer().patched():
        assert all(_lookup(m, p) is not fn for m, p, fn in before)
    assert all(_lookup(m, p) is fn for m, p, fn in before)


def _lookup(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_benchmark_imports_only_stdlib_and_kpcover():
    own = {p.stem for p in HERE.glob("*.py")}
    allowed = set(sys.stdlib_module_names) | own | {"kpcover", "pytest"}
    for path in HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tight-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
