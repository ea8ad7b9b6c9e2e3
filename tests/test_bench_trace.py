"""The benchmark's tracer hooks the engine by name (bench/spans.py): a traced
worker must find every hook target, memo tables included, and read nonzero
L, d and q_1^(k) table sizes.  A renamed target would turn its per-layer
metrics into nulls without failing the run."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_traced_calculus_sweep_finds_every_hook():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload",
         "calculus_sweep", "--seed", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and not result["errors"], result["errors"]
    layers = result["layers"]
    assert layers["absent"] == []
    assert all(layers["tables"].get(kind) for kind in ("L", "d", "q1k")), layers["tables"]
