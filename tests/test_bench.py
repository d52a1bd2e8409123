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
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kpcover; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "False"
