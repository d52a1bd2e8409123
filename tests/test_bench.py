"""Bench summary arithmetic and the package's import footprint."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kpcover
from kpcover import loglog_slope

SRC = str(Path(kpcover.__file__).resolve().parents[1])


def test_loglog_slope_of_a_power_law():
    slope, r2 = loglog_slope([10, 20, 40, 80], [3 * n ** 2 for n in (10, 20, 40, 80)])
    assert slope == pytest.approx(2.0) and r2 == pytest.approx(1.0)


def test_loglog_slope_of_constant_values():
    assert loglog_slope([10, 20, 40], [7.0, 7.0, 7.0]) == (0.0, 1.0)


def test_import_does_not_load_numpy():
    # nor the modules that only `kpcover bench` and the clique reduction use
    env = dict(os.environ, PYTHONPATH=SRC)
    unloaded = ("numpy", "statistics", "csv", "kpcover.bench", "kpcover.reduction")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kpcover; "
         f"print([m for m in {unloaded!r} if m in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


EXPORTS_CHECK = """
import importlib, sys
import kpcover
resolved = {name: getattr(kpcover, name) for name in kpcover.__all__}
modules = [importlib.import_module(f"kpcover.{name}") for name in
           ("approx", "bench", "errors", "exact", "generate", "graph",
            "heuristic", "ioformat", "reduction", "solvers")]
for name, value in resolved.items():
    assert vars(kpcover)[name] is value, name  # cached after first access
    holders = [m for m in modules if name in vars(m)]
    assert holders and all(vars(m)[name] is value for m in holders), name
    home = getattr(value, "__module__", None)  # None for ALGOS, a tuple
    assert home is None or vars(sys.modules[home])[name] is value, name
namespace = {}
exec("from kpcover import *", namespace)
assert sorted(set(namespace) - {"__builtins__"}) == sorted(kpcover.__all__)
assert not hasattr(kpcover, "no_such_name")
print("ok")
"""


def test_every_export_resolves_to_its_definition():
    # a fresh interpreter, so the deferred names resolve through
    # kpcover.__getattr__ rather than through an earlier import
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", EXPORTS_CHECK],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr
