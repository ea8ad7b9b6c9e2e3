"""The benchmark's tracer hooks the engine by name (bench/spans.py): a traced
worker must find every hook target, memo tables included, and read nonzero
L, d and q_1^(k) table sizes, nonzero calls of fock.prepend_part in the
Heisenberg sweep, and nonzero calls of the S_n oracle's hooks
(`_product_row`, `CentralElement.__mul__`, `RowSpan.add`).  A renamed or
moved target would turn its per-layer metrics into nulls without failing
the run."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def traced_worker(workload, shard=0):
    """The per-layer counts of one traced bench/worker.py round."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload",
         workload, "--seed", "1", "--trace", "1", "--shard", str(shard)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and not result["errors"], result["errors"]
    return result["layers"]


def test_traced_calculus_sweep_finds_every_hook():
    layers = traced_worker("calculus_sweep")
    assert layers["absent"] == []
    assert all(layers["tables"].get(kind) for kind in ("L", "d", "q1k")), layers["tables"]


def test_traced_heisenberg_sweep_calls_the_kernels():
    # the last stdout line must be a result (traced_worker parses it), and the
    # row scans step through fock.prepend_part
    layers = traced_worker("heisenberg_sweep")
    assert layers["absent"] == []
    assert layers["stats"].get("fock.prepend_part", [0])[0], layers["stats"]


# workload: the S_n oracle hooks it must call
ORACLE_HOOKS = {
    "sn_closure": ("class_algebra.product_row", "class_algebra.central_mul",
                   "linalg.rowspan_add"),
    "cold_queries": ("class_algebra.product_row", "linalg.rowspan_add"),
}


@pytest.mark.parametrize("workload", sorted(ORACLE_HOOKS))
def test_traced_oracle_workloads_call_every_hook(workload):
    layers = traced_worker(workload)
    assert layers["absent"] == []
    calls = {hook: layers["stats"].get(hook, [0])[0] for hook in ORACLE_HOOKS[workload]}
    assert all(calls.values()), calls
