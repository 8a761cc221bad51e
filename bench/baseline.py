"""Record a baseline: run every workload on seeds 1..10, then once traced,
and write the figures with the rationale behind each workload to
bench/baseline.json.

    python3 bench/baseline.py

Run from the repository root.  For each end-to-end metric it reports the
median over the seeds, the quartiles, and their distance as a share of the
median (the spread that the metric's bound in BENCHMARK.json must cover).
verify_s is also pooled over every pass of every run, which gives enough
samples for a tail percentile, in reference seconds and in raw wall
seconds.  Takes about 15 minutes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import run as bench
import tracing

SEEDS = range(1, 11)
OUT = os.path.join(bench.HERE, "baseline.json")


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def pooled(values):
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    out = {"samples": len(values), "median": statistics.median(values)}
    tail = bench.high_percentile(values)
    if tail:
        out[f"p{tail[0]}"] = tail[1]
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool):
    metrics, lines, run = bench.run_workload(workload, seed, seconds, trace)
    if metrics is None:
        raise SystemExit("\n".join(lines + [f"{workload} seed {seed}: no verified pass"]))
    return metrics, run


def main() -> int:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.ROOT,
                            stdout=subprocess.PIPE, text=True).stdout.strip()

    workloads = {}
    for entry in spec["workloads"]:
        w = entry["name"]
        runs, passes, attempted, failed = [], [], 0, 0
        for seed in SEEDS:
            metrics, run = measure(w, seed, seconds, False)
            runs.append(metrics)
            passes.extend(run.verified)
            attempted += run.attempted
            failed += run.failed
            print(w, seed, {m: round(v, 4) for m, v in metrics.items()}, flush=True)
        traced, run = measure(w, SEEDS[0], seconds, True)
        workloads[w] = {
            "why": entry["why"],
            "seed": bench.SEED_EFFECT[w],
            "end_to_end": {m["name"]: spread([r[m["name"]] for r in runs])
                           for m in spec["end_to_end"]},
            "verify_s_passes": pooled([p["verify_s"] for p in passes]),
            "wall_s_passes": pooled([p["wall_s"] for p in passes]),
            "unexpected": {"failed": failed, "attempted": attempted},
            "per_layer": traced,
            "per_layer_unexpected": {"failed": run.failed, "attempted": run.attempted},
        }
    record = {
        "commit": commit,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "layer_map": {m: {"moves": "verify_s", "on": list(w)} for m, w in tracing.EXPECTED.items()},
        "workloads": workloads,
    }
    with open(OUT, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w, data in workloads.items():
        for m, s in data["end_to_end"].items():
            print(f"{w} {m}: median {s['median']:.4f}, spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
