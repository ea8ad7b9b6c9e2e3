"""Golden stdout of `fockcalc verify`: every suite, both formats, pinned byte
for byte together with exit codes, and one nested_bracket_check record.

The expected outputs live in golden_verify.json.  After an intended change of
output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

from fockcalc import load_preset, nested_bracket_check
from fockcalc.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_verify.json")

SUITES = ("heisenberg", "Lq", "LL", "qprime", "expansion", "nested_bracket")
CASES = {f"{fmt} {suite} {alg} w{weight}":
         ["--format", fmt, "verify", "--suite", suite, "--algebra", alg,
          "--max-weight", str(weight)]
         for fmt in ("text", "structured")
         for alg, weight in (("p2", 2), ("torus_like", 1))
         for suite in SUITES}
CASES.update({f"{fmt} multi p2 w2":
              ["--format", fmt, "verify", "--suite", ",".join(SUITES),
               "--algebra", "p2", "--max-weight", "2", "--max-index", "1"]
              for fmt in ("text", "structured")})


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def nested_record():
    torus = load_preset("torus_like")
    x1, x2, x3 = (torus.basis_element(f"x{j}") for j in (1, 2, 3))
    return nested_bracket_check(2, x1, [x2, x3, torus.unit()], torus, 2).to_record()


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_stdout_golden(name):
    assert run_cli(CASES[name]) == load_golden()["cli"][name]


def test_nested_bracket_check_record_golden():
    assert nested_record() == load_golden()["nested_bracket_check"]


def test_index_free_suites_keep_one_instance():
    golden = load_golden()["cli"]
    for alg in ("p2 w2", "torus_like w1"):
        for suite in ("expansion", "nested_bracket"):
            record = json.loads(golden[f"structured {suite} {alg}"]["stdout"])
            assert record["instance_counts"] == {}
            text = golden[f"text {suite} {alg}"]["stdout"]
            assert "over 1 identity instances" in text


if __name__ == "__main__":
    data = {"cli": {name: run_cli(argv) for name, argv in sorted(CASES.items())},
            "nested_bracket_check": nested_record()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
