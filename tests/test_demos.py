"""Smoke test of the three demos the README lists.

Each demo runs as its own process on this checkout's sources, the way a
reader would start it, and must exit 0 and print its key result line.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    (
        ["hook_slice_tour.py", "-n", "3"],
        "normal form reached: -y^6 + 3*x*y^4*z - 3*x^2*y^2*z^2 + x^3*z^3"
        " + a^2*x + 2*a*b*y + b^2*z",
    ),
    (
        ["betti_tables.py", "--family", "C", "--rank", "4"],
        "exceptional set: [(6, 2), (4, 4)]",
    ),
    (
        ["moment_map_pair.py", "--n", "4", "--i", "3"],
        "check: jordan_type(pi) = (4, 2), jordan_type(rho) = (5, 3)",
    ),
]


@pytest.mark.parametrize("argv, line", DEMOS, ids=[d[0][0] for d in DEMOS])
def test_demo_runs(argv, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    script, *args = argv
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
