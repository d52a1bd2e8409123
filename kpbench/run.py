"""Layered benchmark for kpcover.

    python3 kpbench/run.py --workload dense-slack --seed 1 --seconds 36 --trace 0
    python3 kpbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Each workload is a closed loop in one process with no threads: one
instance at a time goes through the pipeline in pipeline.py, then its
outputs are checked. --trace 0 reports the end-to-end metrics, with
timings in reference seconds (see calibrate.py); --trace 1 reports
per-layer metrics from a traced run, plus the tracing overhead against
untraced runs of the same instances. Every line before the
last is for people; the last line is one JSON object with the keys
correct, attempted, failed and metrics. --workload all runs each workload
in its own fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import (REFERENCE_LAUNCH_CODE, REFERENCE_LAUNCH_S,
                       Calibrator)
from pipeline import (DEFAULT_SEED, ROOT, SRC, WORKLOADS, Workload, check,
                      digest, instance_seeds, reference_digests, run_instance)
from tracing import Tracer

SETUP_REPEATS = 11
# one BLAS thread: numpy's BLAS threads would race the import on 2 CPUs
SETUP_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
SETUP_CODE = ("import kpcover, sys; "
              "sys.stdout.write(kpcover.__file__ + '\\n'); sys.stdout.flush()")
TRACE_DIR = Path(__file__).resolve().parent / "out"

# per-layer spans reported as calls and busy time per instance
LAYERS = (
    "heuristic.solve_cvck", "heuristic.state_init", "heuristic.extract_max",
    "heuristic.make_decision", "heuristic.tentative_select",
    "heuristic.undo_tentative", "exact.exact_cvck", "exact.exact_min_vc",
    "generate.gen_kpartite", "generate.derive_budgets",
    "ioformat.serialize_instance", "ioformat.parse_instance",
    "graph.build_graph", "graph.validate_instance", "approx.two_approx_vc",
)


@dataclass
class Run:
    """Outcome of one closed loop over a workload's instances."""
    attempted: int = 0
    latencies: list[float] = field(default_factory=list)  # s, correct only
    starts: list[float] = field(default_factory=list)  # perf_counter, per latency
    failed: int = 0
    first_failure: str = ""
    cvck_successes: int = 0
    oracle_feasible: int = 0
    feasible_successes: int = 0
    gaps: list[int] = field(default_factory=list)
    edges: int = 0
    draws: int = 0
    bytes: int = 0
    op_count: int = 0
    nodes: int = 0

    def fail(self, index: int, reason: str) -> None:
        self.failed += 1
        if not self.first_failure:
            self.first_failure = f"instance {index}: {reason}"

    def add(self, out, start: float, seconds: float) -> None:
        self.starts.append(start)
        self.latencies.append(seconds)
        h, e = out.cvck, out.exact
        self.cvck_successes += h.success
        self.op_count += h.op_count
        if e is not None:
            self.nodes += e.nodes_explored
            if e.feasible:
                self.oracle_feasible += 1
                self.feasible_successes += h.success
                if h.success:
                    self.gaps.append(h.size - e.size)
        inst = out.instance
        self.edges += inst.graph.m
        n = inst.graph.n
        self.draws += n * (n - 1) // 2 - sum(
            len(s) * (len(s) - 1) // 2 for s in inst.partition.parts)
        self.bytes += out.text_bytes


def attempt(run: Run, w: Workload, i: int, inst_seed: int,
            expected: list[str]) -> None:
    """Time instance i through the pipeline, then check its outputs."""
    run.attempted += 1
    t0 = time.perf_counter()
    try:
        out = run_instance(w, inst_seed)
    except Exception:  # a raising instance is a failed one; keep going
        run.fail(i, traceback.format_exc(limit=3))
        return
    elapsed = time.perf_counter() - t0
    problems = check(out)
    if i < len(expected) and (got := digest(out)) != expected[i]:
        problems.append(f"digest {got} != reference {expected[i]}")
    if problems:
        run.fail(i, "; ".join(problems))
    else:
        run.add(out, t0, elapsed)


def measure(w: Workload, seeds, seconds: float | None,
            expected: list[str]) -> Run:
    """Closed loop: one instance at a time until the seeds or seconds run out."""
    run = Run()
    start = time.perf_counter()
    for i, inst_seed in enumerate(seeds):
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        attempt(run, w, i, inst_seed, expected)
    return run


def measure_traced(w: Workload, seeds, seconds: float | None,
                   expected: list[str]) -> tuple[Tracer, Run, Run]:
    """Like measure, but each instance runs twice, traced and untraced, in
    alternating order, so the difference is the tracing overhead."""
    tracer, traced, untraced = Tracer(), Run(), Run()
    start = time.perf_counter()
    for i, inst_seed in enumerate(seeds):
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        tracer.instance = i
        for with_trace in ((False, True) if i % 2 else (True, False)):
            if with_trace:
                with tracer.patched():
                    attempt(traced, w, i, inst_seed, expected)
            else:
                attempt(untraced, w, i, inst_seed, expected)
    return tracer, traced, untraced


def launch(code: str, env: dict) -> tuple[float, str]:
    """Seconds from starting a fresh interpreter on `code` until it prints
    its first line, and that line."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        elapsed = time.perf_counter() - t0
    if p.returncode != 0:
        raise SystemExit(f"kpbench: set-up process failed after {line!r}")
    return elapsed, line.strip()


def measure_setup() -> tuple[float, float]:
    """Median time from interpreter start until `import kpcover` is done,
    each in a fresh process, in reference and in wall-clock seconds. Each
    launch follows a reference launch (see calibrate.py); the first pair is
    a warm-up and is discarded."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **SETUP_ENV)
    expected = SRC / "kpcover" / "__init__.py"
    ref, wall = [], []
    for i in range(SETUP_REPEATS + 1):
        yardstick, _ = launch(REFERENCE_LAUNCH_CODE, env)
        elapsed, line = launch(SETUP_CODE, env)
        if Path(line).resolve() != expected:
            raise SystemExit(f"kpbench: set-up process imported {line!r}")
        if i:
            ref.append(elapsed * REFERENCE_LAUNCH_S / yardstick)
            wall.append(elapsed)
    return statistics.median(ref), statistics.median(wall)


def environment(w: Workload, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": w.name, "seed": seed,
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit}


def quality(run: Run, w: Workload) -> dict:
    """Deterministic outcome metrics; a speed-up must leave them unchanged."""
    done = len(run.latencies)
    denominator = run.oracle_feasible if w.oracle else done
    return {
        "failed_frac": (run.failed / run.attempted, "ratio"),
        "cvck_success_rate": ((run.feasible_successes if w.oracle else
                               run.cvck_successes) / denominator
                              if denominator else None, "ratio"),
        "cvck_gap_mean": (statistics.fmean(run.gaps) if run.gaps else None,
                          "vertices"),
    }


def latency(seconds: list[float], ref: str) -> dict:
    """Throughput, median and p90 of per-instance times; ref is "ref_" for
    reference seconds and "" for wall-clock ones."""
    ms = [t * 1000.0 for t in seconds]
    return {
        f"instances_per_{ref}s": (len(ms) / sum(seconds), f"1/{ref}s"),
        f"instance_{ref}ms_p50": (statistics.median(ms), f"{ref}ms"),
        f"instance_{ref}ms_p90": (statistics.quantiles(
            ms, n=10, method="inclusive")[8], f"{ref}ms"),
    }


def end_to_end(run: Run, cal: Calibrator, setup_s: float) -> dict:
    """Timings in reference seconds (see calibrate.py), plus memory."""
    ref = [cal.scale(t0, t0 + t) for t0, t in zip(run.starts, run.latencies)]
    return {
        **latency(ref, "ref_"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def wall_clock(run: Run, cal: Calibrator, setup_wall_s: float) -> dict:
    """The same timings unscaled, for people; the machine's drift is in them."""
    return {
        **{f"wall.{k}": v for k, v in latency(
            [cal.own(t0, t0 + t) for t0, t in zip(run.starts, run.latencies)],
            "").items()},
        "wall.setup_s": (setup_wall_s, "s"),
        "wall.calibration_kernel_ms": (cal.median_s() * 1000.0, "ms"),
    }


def per_layer(tracer: Tracer, times: tuple, traced: Run, untraced: Run) -> dict:
    calls, busy, self_ns, _ = times
    per = traced.attempted
    done = len(traced.latencies)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls[layer] / per, "calls/inst")
        m[f"{layer}.busy_ms"] = (busy[layer] / 1e6 / per, "ms/inst")
    m["heuristic.solve_cvck.self_ms"] = (
        self_ns["heuristic.solve_cvck"] / 1e6 / per, "ms/inst")
    tentative = calls["heuristic.tentative_select"]
    kept = tentative - calls["heuristic.undo_tentative"]
    m["heuristic.accept_ratio"] = (kept / tentative if tentative else 0.0, "ratio")
    m["heuristic.budget_skips"] = (
        (tracer.found["heuristic.extract_max"] - tentative) / per,
        "skips/inst")
    m["heuristic.op_count"] = (traced.op_count / done, "ops/inst")
    exact_s = busy["exact.exact_cvck"] / 1e9
    m["exact.nodes_explored"] = (traced.nodes / done, "nodes/inst")
    m["exact.nodes_per_s"] = (traced.nodes / exact_s if exact_s else 0.0, "1/s")
    m["generate.edges"] = (traced.edges / done, "edges/inst")
    m["generate.draws"] = (traced.draws / done, "draws/inst")
    parse_s = busy["ioformat.parse_instance"] / 1e9
    m["ioformat.bytes"] = (traced.bytes / done, "bytes/inst")
    m["ioformat.parse_mb_per_s"] = (traced.bytes / 1e6 / parse_s
                                    if parse_s else 0.0, "MB/s")
    traced_s, untraced_s = sum(traced.latencies), sum(untraced.latencies)
    m["trace.instances"] = (per, "count")
    m["trace.overhead_ms"] = ((traced_s - untraced_s) * 1000.0 / done, "ms/inst")
    m["trace.overhead_pct"] = ((traced_s - untraced_s) / untraced_s * 100.0, "%")
    return m


def largest(times: tuple, parent: str | None) -> str | None:
    """Busiest layer overall, or busiest direct child of `parent`."""
    _, busy, _, edges = times
    if parent is None:
        return max(busy, key=busy.get, default=None)
    children = {c: ns for (p, c), ns in edges.items() if p == parent}
    return max(children, key=children.get, default=None)


def report(env: dict, metrics: dict) -> None:
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:44s} {shown:>14s} {unit}")


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> int:
    expected = reference_digests(w, seed)
    env = environment(w, seed)
    if trace:
        tracer, run, untraced = measure_traced(w, instance_seeds(seed), seconds,
                                               expected)
        run.failed = max(run.failed, untraced.failed)
        run.first_failure = run.first_failure or untraced.first_failure
        tracer.write(TRACE_DIR / f"{w.name}.spans.tsv.gz")
    else:
        setup_s, setup_wall_s = measure_setup()
        with Calibrator().ticking() as cal:
            run = measure(w, instance_seeds(seed), seconds, expected)
    env["instances"] = run.attempted
    env["reference_checked"] = min(len(expected), run.attempted)
    if run.first_failure:
        print(f"# first failure: {run.first_failure}", file=sys.stderr)
    if len(run.latencies) < 2:
        print("kpbench: fewer than two instances completed", file=sys.stderr)
        return 1
    if trace:
        times = tracer.layer_times()
        metrics = per_layer(tracer, times, run, untraced)
        for missing in tracer.missing:
            print(f"# not traced (attribute missing): {missing}")
        print(f"# largest layer: {largest(times, None)}; largest child of "
              f"heuristic.solve_cvck: {largest(times, 'heuristic.solve_cvck')}")
    else:
        metrics = end_to_end(run, cal, setup_s)
    report(env, {**metrics, **quality(run, w),
                 **({} if trace else wall_clock(run, cal, setup_wall_s))})
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so set-up and memory are its own."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines))
            status = proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        status = status or (0 if results[name]["correct"] else 1)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
