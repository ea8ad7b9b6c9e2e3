"""One benchmark round in a fresh process: set up, run, check, report.

    python3 bench/worker.py --workload NAME --seed N [--trace 0|1] [--jobs J]
                            [--shard K] [--spans PATH] [--setup-only]

Prints one JSON line with the round's set-up time, per-operation latencies
(scaled to nominal host speed and raw), check counts, failures, wrong
outputs, peak resident memory and, when traced, the per-layer metrics.
run.py starts one of these per round, so every round starts from an empty
process: cold imports, cold memo tables.
"""

import argparse
import json
import os
import random
import resource
import sys
from time import perf_counter

import calibrate

# presets that set-up loads and validates, per workload
SETUP_PRESETS = {
    "heisenberg_sweep": ("p2", "p1xp1", "torus_like"),
    "calculus_sweep": ("p2", "p1xp1", "torus_like"),
    "cold_queries": ("p2", "p1xp1"),
    "sn_closure": (),
}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--shard", type=int, default=0,
                        help="which of the round's worker processes this is")
    parser.add_argument("--spans", default=None,
                        help="where a traced round writes its span records")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up: one more set-up time sample")
    args = parser.parse_args(argv)
    # calibration samples and timed work must share one vCPU; the sampler
    # inherits this affinity
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with calibrate.Clock() as clock:
        result, rnd = run_round(args)
    start, end = result.pop("setup_interval")
    result["setup_raw_s"] = end - start
    result["setup_s"] = clock.scale(start, end)
    rnd.scale(clock)
    if not args.setup_only:
        result["ops"] = [op[:4] for op in rnd.ops]
    print(json.dumps(result))
    return 0


def run_round(args):
    # set-up: import the engine, load and validate the workload's algebras
    start = perf_counter()
    import fockcalc
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    presets = SETUP_PRESETS[args.workload]
    algebras = {name: fockcalc.load_preset(name) for name in presets}
    setup_interval = (start, perf_counter())

    import workloads
    run, shards = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        return {"setup_interval": setup_interval, "shards": shards}, workloads.Round()

    docs = {name: workloads.Preset(name) for name in presets}
    rng = random.Random(f"{args.workload}:{args.seed}:{args.shard}")
    rnd = workloads.Round(tracer)
    run(rnd, rng, algebras, docs, args.jobs, args.shard)

    result = {
        "setup_interval": setup_interval,
        "shards": shards,
        "checks": rnd.checks,
        "failed": rnd.failed,
        "errors": rnd.errors,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": f"{fockcalc.Rat.__module__}.{fockcalc.Rat.__name__}",
    }
    if tracer is not None:
        result["layers"] = spans.raw_counts(tracer)
        if args.spans:
            tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed})
    return result, rnd


if __name__ == "__main__":
    sys.exit(main())
