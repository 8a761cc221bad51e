"""The benchmark tracer (bench/tracing.py) patches exactlie entry points by
module and name after ``import exactlie.cli``.  Each must still resolve
there, so that a deleted, renamed or lazily imported entry point fails
here rather than in a traced benchmark pass."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
