"""fockcalc benchmark: one command, four workloads, end-to-end and per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--jobs J]

Run from anywhere inside a source checkout; the engine is imported from the
checkout's src/.  The command repeats whole rounds of the workload, each in
fresh worker processes (bench/worker.py), while the next round is expected
to end within S seconds, and at least once (twice when traced).  Every output is checked against values computed
apart from the engine; the last line of stdout is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
A traced run alternates untraced and traced rounds and reports the tracing
overhead as trace.overhead_s.  See bench/README.md for the workloads.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("heisenberg_sweep", "calculus_sweep", "cold_queries", "sn_closure")
MIN_SETUPS = 11  # set-up samples per run; every worker process gives one
TIME_LIMIT_S = 170  # the whole command must end well within three minutes

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("checks_per_s", "checks/s"),
              ("query_p50_ms", "ms"), ("query_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker threads for the verify sweeps; 1 in the "
                             "benchmark, other values for reference runs only")
    return parser.parse_args(argv)


def run_worker(args, traced, deadline, shard=0, setup_only=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--jobs", str(args.jobs), "--shard", str(shard)]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        name = f"spans-{args.workload}-{args.seed}-{shard}.json"
        cmd += ["--spans", str(out_dir / name)]
    # subprocess.run kills and reaps the worker when the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - perf_counter(), 1))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_round(args, traced, deadline):
    """One round: the workload's worker processes in turn, merged."""
    parts = [run_worker(args, traced, deadline)]
    for shard in range(1, parts[0]["shards"]):
        parts.append(run_worker(args, traced, deadline, shard))
    return {
        "setups": [(p["setup_s"], p["setup_raw_s"]) for p in parts],
        "ops": [op for p in parts for op in p["ops"]],
        "checks": sum(p["checks"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "errors": [e for p in parts for e in p["errors"]],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "backend": parts[0]["backend"],
        "layers": spans.merge_counts([p["layers"] for p in parts]) if traced else None,
    }


def latency_quantiles(rounds):
    """p50 and p90 over operations, in ms, of each operation's median latency
    across rounds.  Failed operations are left out."""
    labels = [op[0] for op in rounds[0]["ops"]]
    if any([op[0] for op in r["ops"]] != labels for r in rounds):
        raise RuntimeError("rounds of one seed ran different operations")
    per_op = []
    for k in range(len(labels)):
        times = [r["ops"][k][1] for r in rounds if r["ops"][k][2]]
        if times:
            per_op.append(statistics.median(times) * 1000)
    return (statistics.median(per_op),
            statistics.quantiles(per_op, n=10, method="inclusive")[8])


def wall(r):
    return sum(op[1] for op in r["ops"])


def raw_wall(r):
    return sum(op[3] for op in r["ops"])


def end_to_end(rounds, setups):
    p50, p90 = latency_quantiles(rounds)
    values = {
        "setup_s": statistics.median(scaled for scaled, _ in setups),
        "wall_s": statistics.median(wall(r) for r in rounds),
        "checks_per_s": statistics.median(r["checks"] / wall(r) for r in rounds),
        "query_p50_ms": p50,
        "query_p90_ms": p90,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(traced, untraced):
    """Medians over the traced rounds.  Span times are raw; they are scaled
    by each round's ratio of scaled to raw operation time."""
    layers = []
    for r in traced:
        factor = wall(r) / raw_wall(r)
        layers.append({name: (value * factor if value is not None
                              and spans.unit_of(name)[0] == "s" else value)
                       for name, value in spans.layer_metrics(r["layers"]).items()})
    out = {}
    for name in spans.PER_LAYER:
        unit = spans.unit_of(name)[0]
        if name == "trace.overhead_s":
            value = (statistics.median(wall(r) for r in traced)
                     - statistics.median(wall(r) for r in untraced))
            out[name] = {"value": value, "unit": unit}
            continue
        values = [layer[name] for layer in layers]
        if any(v is None for v in values):
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            # counts repeat exactly from round to round; keep them whole
            middle = (statistics.median_low if all(isinstance(v, int) for v in values)
                      else statistics.median)
            out[name] = {"value": middle(values), "unit": unit}
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fockcalc" / "__init__.py").is_file():
        print(f"error: no fockcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    rounds = []
    begin = perf_counter()
    deadline = begin + TIME_LIMIT_S
    min_rounds = 2 if args.trace else 1
    durations = []
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            start = perf_counter()
            rounds.append((traced, run_round(args, traced, deadline)))
            durations.append(perf_counter() - start)
            expected_end = perf_counter() - begin + statistics.median(durations)
            if len(rounds) >= min_rounds and expected_end > args.seconds:
                break
        setups = [s for _, r in rounds for s in r["setups"]]
        while len(setups) < MIN_SETUPS:
            extra = run_worker(args, False, deadline, setup_only=True)
            setups.append((extra["setup_s"], extra["setup_raw_s"]))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [r for traced, r in rounds if not traced]
    traced = [r for is_traced, r in rounds if is_traced]
    everything = plain + traced
    errors = [e for r in everything for e in r["errors"]]
    for e in errors:
        print(f"wrong output: {e}", file=sys.stderr)

    gmpy2 = ("importable" if importlib.util.find_spec("gmpy2")
             else "not importable, so the gmpy2.mpq path is not measured")
    print(f"env: python {platform.python_version()}; "
          f"scalar backend {everything[0]['backend']}; gmpy2 {gmpy2}; "
          f"cpus {os.cpu_count()}; seed {args.seed}; workload {args.workload}; "
          f"jobs {args.jobs}; rounds {len(plain)} untraced, {len(traced)} traced")
    print("raw (unscaled) medians: setup_s {:.4f}; wall_s {:.4f}".format(
        statistics.median(raw for _, raw in setups),
        statistics.median(raw_wall(r) for r in everything)))
    if traced:
        absent = sorted({a for r in traced for a in r["layers"]["absent"]})
        if absent:
            print(f"absent hooks: {', '.join(absent)}")
        metrics = per_layer(traced, plain)
    else:
        metrics = end_to_end(plain, setups)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(r["ops"]) for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
