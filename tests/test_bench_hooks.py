"""The benchmark tracer (bench/tracing.py) patches exactlie entry points by
module and name after ``import exactlie.cli``.  Each must still resolve
there, so that a deleted, renamed or lazily imported entry point fails
here rather than in a traced benchmark pass."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import exactlie

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(exactlie.__file__).resolve().parents[1]

# the kernels the tracer counts rather than spans
COUNTED = (
    ("scalar", "Scalar.__mul__"),
    ("scalar", "Scalar.__add__"),
    ("scalar", "Scalar.__sub__"),
    ("polymat", "PolyMatrix.__mul__"),
    ("cli", "_check"),
    ("g2", "g2_bracket"),
)

# run in a fresh interpreter: modules other tests imported must not hide a
# module that ``import exactlie.cli`` no longer loads
PROBE = """
import json, sys
import exactlie.cli
import tracing
missing = []
for module, name in [(m, n) for m, n, _ in tracing.SPANS] + json.loads(sys.argv[1]):
    try:
        owner, attr = tracing._resolve("exactlie." + module, name)
        if not callable(getattr(owner, attr)):
            missing.append(module + "." + name)
    except (KeyError, AttributeError):
        missing.append(module + "." + name)
print(json.dumps(missing))
"""


def test_every_traced_entry_point_resolves_after_importing_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(COUNTED)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(done.stdout) == []


@pytest.mark.parametrize("workload", ["check", "hook-scaling", "ideal-membership"])
def test_a_traced_pass_records_every_expected_layer(workload):
    # one traced pass, as ``bench/run.py --trace 1`` starts it: every
    # outcome verifies, every metric tracing.EXPECTED names on this workload
    # records a call, and none FORBIDDEN does
    spec = {"root": str(BENCH.parent), "workload": workload, "seed": 1, "trace": True,
            "setup_only": False, "spawned": time.monotonic()}
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        capture_output=True, text=True, cwd=BENCH.parent, check=True, timeout=300,
    )
    assert json.loads(done.stdout.splitlines()[-1])["unexpected"] == []
