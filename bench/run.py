"""exactlie benchmark: time to a verified answer, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of the workloads below, or
``all`` to run each in turn.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
give the same figures for people, with units.

Workloads (one pass each; see workloads.py):

* check: ``exactlie check --emit json --seed N``, all six suites, 41
  checks.  The command users run.  The Lie-bracket layer (g2.jacobi_full)
  and the cli check assembly work only here, and most Q(sqrt 2)
  coefficients appear here.  It is the noisiest workload: one pass took
  16-32 s of wall time on a shared 2-core x86 virtual machine (the Jacobi
  sweep alone 10.8-14.9 s), following the load other guests put on the
  host, and a 30 s run holds a single pass.
* hook-scaling: hook_pipeline, hook_factorization and
  normalize_to_hook_form for n = 2..7.  Polynomial arithmetic, charpoly over
  polynomial entries and triangular elimination, and no g2 call at all.
  Most of the pass is liealg.hook_slice, whose sp(2n) basis and ker(ad y)
  come from rref on Scalar matrices of up to 196 columns.  The steps grow
  with n (the scaling curve).  The seed has no effect here.
* ideal-membership: the forward singular-locus certificates of g2, z1^3 in
  the Jacobian ideal (a member), z1^2 (not a member), and two seeded members
  sum q_i * df/dv_i of weighted degree 15.  Dense rref, solve_linear and
  nullspace on Scalar matrices, on the consistent and inconsistent paths.

Seeds: --seed picks the check command's --seed and the cofactors q_i of the
seeded members (a few random small-rational terms each).  The same seed
gives the same inputs.  exactlie receives only those inputs.

Each pass runs in a fresh interpreter, one at a time, as a closed loop with
one caller and no extra threads: the CLI is a one-shot process, so users pay
every lazy cost on every call (the lru_cache on g2.slice_invariants too),
and no cache carries over between passes.  Passes repeat while another one
is predicted to end within --seconds (at least one pass, and a pass may run
over by half its length); then come the bare starts that time set-up.

Host speed: on a shared 2-core virtual machine the same 0.5 s computation
took 0.43-0.92 s from one call to the next, following the load of other
guests, and CPU time moved with wall time.  So the timed metrics are
rescaled to a steady host speed (reference.py): while a pass runs, a fixed
unit of interpreter work is timed every 50 ms in the same process, and the
pass's wall time is divided by the unit's mean duration over the pass and
multiplied by its nominal duration, reference.UNIT_S (2 ms).  The result is
in reference seconds: the wall time the pass would take on a host where
the unit takes UNIT_S.  The raw wall times are printed beside them.

End-to-end metrics (--trace 0), medians over the run's verified passes:
  verify_s      one pass, from the first call into exactlie to the end of
                the benchmark's check of its outputs, in reference seconds
                (the time the host-speed samples took is left out); a pass
                with an unexpected outcome is not counted, and a run with
                no verified pass prints no result and exits 1
  setup_s       interpreter start until exactlie is imported, in reference
                seconds, over SETUP_SAMPLES bare starts per run, each
                rescaled by unit samples taken just before and after it
  peak_rss_mib  peak resident memory of the pass process
The share of unexpected outcomes is ``failed`` over ``attempted``.

Per-layer metrics (--trace 1, see tracing.py) come from traced passes that
alternate with untraced ones; they are raw wall times and counts, from
verified traced passes only.  bench.untraced_verify_s is the untraced
median wall time, and bench.trace_overhead_s the traced minus the untraced
median wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("check", "hook-scaling", "ideal-membership")
SETUP_SAMPLES = 15
SETUP_UNITS = 25  # unit samples before and after each bare start
RUN_LIMIT_S = 170  # every run ends well inside 180 s
SEED_EFFECT = {
    "check": "passed on as exactlie check --seed (pfaffian, kernel and sample draws)",
    "hook-scaling": "none: the inputs are n = 2..7 whatever the seed",
    "ideal-membership": "draws the cofactors of the two seeded members",
}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib"):
        return "MiB"
    if metric.endswith(("_share", "_yield", "_per_solve")):
        return "ratio"
    return "count"


class Run:
    """The passes of one run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.passes = 0  # untraced passes started
        self.verified = []  # results of the untraced passes that verified
        self.setups = []  # (reference, wall) seconds of each bare start

    def child(self, trace: bool = False, setup_only: bool = False):
        """One pass (or one bare start) in a fresh interpreter; None when
        it crashed or ran out of time."""
        timeout = max(10.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        spec = {"root": ROOT, "workload": self.workload, "seed": self.seed,
                "trace": trace, "setup_only": setup_only}
        spec["spawned"] = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)], cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"{self.workload}: pass exceeded {timeout:.0f} s", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{self.workload}: pass exited with {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(lines[-1])

    def measured(self, trace: bool = False):
        self.passes += not trace
        result = self.child(trace=trace)
        if result is None:  # a crashed or timed-out pass is one failed outcome
            self.attempted += 1
            self.failed += 1
            self.unexpected.append("pass-completed")
            return None
        self.attempted += result["attempted"]
        self.failed += len(result["unexpected"])
        self.unexpected.extend(result["unexpected"])
        if not trace and not result["unexpected"]:
            self.verified.append(result)
        return result

    def loop(self, step):
        """Repeat step() while another is predicted to end within the run's
        seconds; step returns None to stop early."""
        walls = []
        while True:
            t = time.monotonic()
            if step() is None:
                return
            walls.append(time.monotonic() - t)
            elapsed = time.monotonic() - self.started
            if elapsed + statistics.median(walls) / 2 >= self.seconds or elapsed > RUN_LIMIT_S / 2:
                return

    def time_setups(self) -> None:
        """SETUP_SAMPLES bare starts, each between two blocks of unit
        samples."""
        for _ in range(SETUP_SAMPLES):
            before = [reference.sample() for _ in range(SETUP_UNITS)]
            result = self.child(setup_only=True)
            after = [reference.sample() for _ in range(SETUP_UNITS)]
            if result is None:
                return
            wall = result["setup_s"]
            self.setups.append((reference.rescale(wall, before + after), wall))


def run_plain(run: Run):
    run.loop(run.measured)
    run.time_setups()
    verified = run.verified
    if not verified or len(run.setups) < SETUP_SAMPLES:
        return None, []
    verify = sorted(r["verify_s"] for r in verified)
    metrics = {
        "verify_s": statistics.median(verify),
        "setup_s": statistics.median(ref for ref, _ in run.setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in verified),
    }
    tail = high_percentile(verify)
    units = statistics.median(r["wall_s"] / r["verify_s"] for r in verified)
    lines = [
        f"{run.workload} verify_s: median {metrics['verify_s']:.4f} s ("
        + (f"p{tail[0]} {tail[1]:.4f} s, " if tail else
           f"no tail percentile: needs 11 passes, has {len(verify)}; ")
        + f"{len(verified)} verified passes of {run.passes}); "
        f"wall median {statistics.median(r['wall_s'] for r in verified):.4f} s, "
        f"unit {units:.3f}x its nominal time",
        f"{run.workload} setup_s: median {metrics['setup_s']:.4f} s over {len(run.setups)} starts; "
        f"wall median {statistics.median(wall for _, wall in run.setups):.4f} s",
        f"{run.workload} peak_rss_mib: median {metrics['peak_rss_mib']:.1f} MiB "
        f"over {len(verified)} passes",
    ]
    return metrics, lines


def run_traced(run: Run):
    traced = []

    def step():
        if run.measured() is None:
            return None
        result = run.measured(trace=True)
        if result is not None and not result["unexpected"]:
            traced.append(result)
        return result

    run.loop(step)
    if not traced or not run.verified:
        return None, []
    metrics = {m: statistics.median(r["layers"][m] for r in traced) for m in traced[0]["layers"]}
    untraced = statistics.median(r["wall_s"] for r in run.verified)
    metrics["bench.untraced_verify_s"] = untraced
    metrics["bench.trace_overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced
    bases = traced[0]["bases"]
    lines = [f"{run.workload} {m}: {v:.6g} {unit_of(m)}"
             + (f" (base {bases[m]})" if unit_of(m) == "ratio" else "")
             for m, v in metrics.items()]
    lines.append(f"{run.workload}: {len(traced)} verified traced and "
                 f"{len(run.verified)} verified untraced passes")
    return metrics, lines


def high_percentile(values):
    """(p, value): the highest percentile of the sorted values with at
    least ten samples beyond it, or None below 11 samples."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, values[n - 11]


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    run = Run(workload, seed, seconds)
    run.child(setup_only=True)  # compiles bytecode, so no measured start pays for it
    metrics, lines = (run_traced if trace else run_plain)(run)
    lines.insert(0, f"{workload} seed {seed}: {SEED_EFFECT[workload]}")
    total = max(run.attempted, 1)
    lines.append(f"{workload} unexpected_ratio: {run.failed / total:.6g} "
                 f"({run.failed} of {run.attempted} checked outcomes)")
    if run.unexpected:
        lines.append(f"{workload} unexpected: {', '.join(sorted(set(run.unexpected))[:20])}")
    return metrics, lines, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "exactlie", "__init__.py")):
        print(f"error: no exactlie sources under {ROOT}/src", file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    out, attempted, failed, complete = {}, 0, 0, True
    for workload in chosen:
        metrics, lines, run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        for line in lines:
            print(line, flush=True)
        attempted += run.attempted
        failed += run.failed
        if metrics is None:
            complete = False
            continue
        for name, value in metrics.items():
            key = name if len(chosen) == 1 else f"{workload}.{name}"
            out[key] = {"value": value, "unit": unit_of(name)}
    if not complete or attempted == 0:
        print("error: a workload had no verified pass, or a bare start failed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
