"""One benchmark pass in a fresh interpreter.

Started by run.py with one JSON argument:
{"root", "workload", "seed", "trace", "spawned", "setup_only"}, where
``spawned`` is the parent's ``time.monotonic()`` just before the start, so
that set-up time covers interpreter start-up as well as the import.
Prints one JSON line with the pass's measurements and outcomes.

An untraced pass takes host-speed samples while it runs (reference.py):
``wall_s`` is its wall time less the time the samples took, and
``verify_s`` the same time in reference seconds.  A traced pass takes no
samples, so that they do not fall into its spans; it reports ``wall_s``
only.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import exactlie
    import exactlie.cli  # noqa: F401  (the check workload's entry point)

    setup_s = time.monotonic() - spec["spawned"]
    if not os.path.abspath(exactlie.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"exactlie imported from {exactlie.__file__}, not {src}", file=sys.stderr)
        return 2
    if spec["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import reference
    import tracing
    import workloads

    workload = spec["workload"]
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    inputs = workloads.make_inputs(workload, spec["seed"])
    names = workloads.outcome_names(workload)
    outcomes = {}
    with contextlib.ExitStack() as stack:
        sampler = stack.enter_context(reference.Sampler()) if tracer is None else None
        start = time.perf_counter()
        try:
            workloads.PASSES[workload](inputs, outcomes)
        except Exception:  # an error is an unexpected outcome, not a crash of the run
            traceback.print_exc()
        wall_s = time.perf_counter() - start

    unexpected = [n for n in names if outcomes.get(n) is not True]
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(names),
    }
    if sampler is not None:
        result["wall_s"] = wall_s = wall_s - sampler.spent
        result["verify_s"] = reference.rescale(wall_s, sampler.samples)
    if tracer is not None:
        metrics, bases = tracer.report()
        # every layer expected on this workload must have recorded a call,
        # and none predicted absent may have
        for metric, where in tracing.EXPECTED.items():
            result["attempted"] += 1
            missing = workload in where and not bases[metric]
            leaked = workload in tracing.FORBIDDEN.get(metric, ()) and (bases[metric] or metrics[metric])
            if missing or leaked:
                unexpected.append(f"layer:{metric}:{'missing' if missing else 'present'}")
        result["layers"] = metrics
        result["bases"] = bases
    result["unexpected"] = unexpected
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
