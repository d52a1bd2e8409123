"""Outside-in tracing of kpcover layers.

A traced run replaces the module attribute each caller looks up (for
example kpcover.heuristic.make_decision, which solve_cvck calls) with a
wrapper that records a span: id, parent span id, instance number, layer
name, start and end. Spans stay in memory and are written once, at the end
of the run. Nothing inside kpcover changes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute path as its caller looks it up, layer name)
TARGETS = (
    ("kpcover", "gen_kpartite", "generate.gen_kpartite"),
    ("kpcover.generate", "build_graph", "graph.build_graph"),
    ("kpcover.generate", "derive_budgets", "generate.derive_budgets"),
    ("kpcover.generate", "exact_min_vc", "exact.exact_min_vc"),
    ("kpcover.generate", "two_approx_vc", "approx.two_approx_vc"),
    ("kpcover", "serialize_instance", "ioformat.serialize_instance"),
    ("kpcover", "parse_instance", "ioformat.parse_instance"),
    ("kpcover.ioformat", "build_graph", "graph.build_graph"),
    ("kpcover.ioformat", "validate_instance", "graph.validate_instance"),
    ("kpcover", "exact_cvck", "exact.exact_cvck"),
    ("kpcover.exact", "validate_instance", "graph.validate_instance"),
    ("kpcover", "solve_cvck", "heuristic.solve_cvck"),
    ("kpcover.heuristic", "validate_instance", "graph.validate_instance"),
    ("kpcover.heuristic", "HeuristicState.__init__", "heuristic.state_init"),
    ("kpcover.heuristic", "extract_max", "heuristic.extract_max"),
    ("kpcover.heuristic", "make_decision", "heuristic.make_decision"),
    ("kpcover.heuristic", "HeuristicState.tentative_select",
     "heuristic.tentative_select"),
    ("kpcover.heuristic", "HeuristicState.undo_tentative",
     "heuristic.undo_tentative"),
    ("kpcover", "two_approx_vc", "approx.two_approx_vc"),
)


class Tracer:
    def __init__(self) -> None:
        # (span id, parent span id or -1, instance, layer, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.found: Counter[str] = Counter()  # non-None results per layer
        self.instance = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, layer: str, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns
        found = self.found
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, tracer.instance, layer, start, end))
            if result is not None:
                found[layer] += 1
            return result
        return traced

    @contextmanager
    def patched(self):
        """Wrap every target that exists; restore the originals on exit."""
        undo, self.missing = [], []
        try:
            for module_name, path, layer in TARGETS:
                owner_path, _, attr = path.rpartition(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in filter(None, owner_path.split(".")):
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module_name}.{path}")
                    continue
                setattr(owner, attr, self.wrap(layer, original))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def layer_times(self) -> tuple[Counter, Counter, Counter, Counter]:
        """Per layer: calls, busy ns, self ns; and busy ns per (parent, child)."""
        names = {sid: layer for sid, _, _, layer, _, _ in self.spans}
        calls: Counter[str] = Counter()
        busy: Counter[str] = Counter()
        child_ns: Counter[int] = Counter()
        edges: Counter[tuple[str, str]] = Counter()
        for sid, parent, _, layer, start, end in self.spans:
            calls[layer] += 1
            busy[layer] += end - start
            if parent >= 0:
                child_ns[parent] += end - start
                edges[(names[parent], layer)] += end - start
        self_ns: Counter[str] = Counter()
        for sid, _, _, layer, start, end in self.spans:
            self_ns[layer] += end - start - child_ns[sid]
        return calls, busy, self_ns, edges

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tparent\tinstance\tlayer\tstart_ns\tend_ns\n")
            for span in self.spans:
                f.write("\t".join(map(str, span)) + "\n")
