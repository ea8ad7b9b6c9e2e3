"""Golden stdout of `fockcalc verify`, `fockcalc class` and `fockcalc oracle`:
every suite, B and G classes of rational, combined and odd classes, S_n
products and closures, both formats, pinned byte for byte together with exit
codes, and one nested_bracket_check record.

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
# B and G at i = 2, n = 3: the G cases run apply_formal_g through
# q_1^(2) and d; x1 on torus_like is odd
CLASS_CASES = {f"{fmt} class {kind} {alg} {gamma}":
               ["--format", fmt, "class", kind, "--i", "2", "--gamma", gamma,
                "--n", "3", "--algebra", alg]
               for fmt in ("text", "structured") for kind in ("B", "G")
               for alg, gamma in (("p2", "1/2*h - 3*h2"), ("p1xp1", "f - 1/3*g"),
                                  ("torus_like", "x1"))}
# the S_n oracle: products built from the character table at n = 5, 9 and,
# past the default cap, 12; closures of all hook classes and without the
# two-cycle
ORACLE_ARGS = {
    "product n5": ["product", "--n", "5", "--lambda", "2,1,1,1", "--mu", "3,2"],
    "product n9": ["product", "--n", "9", "--lambda", "2,2,2,2,1", "--mu", "3,3,3"],
    "product n12": ["product", "--n", "12", "--cap", "12",
                    "--lambda", "2,2,2,2,2,2", "--mu", "3,3,3,3"],
    "generate n9": ["generate", "--n", "9"],
    "generate n6 drop-two-cycle": ["generate", "--n", "6", "--drop-two-cycle"],
}
ORACLE_CASES = {f"{fmt} oracle {name}": ["--format", fmt, "oracle"] + argv
                for fmt in ("text", "structured")
                for name, argv in ORACLE_ARGS.items()}


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


@pytest.mark.parametrize("name", sorted(CLASS_CASES))
def test_class_stdout_golden(name):
    assert run_cli(CLASS_CASES[name]) == load_golden()["class"][name]


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_oracle_stdout_golden(name):
    assert run_cli(ORACLE_CASES[name]) == load_golden()["oracle"][name]


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
            "class": {name: run_cli(argv) for name, argv in sorted(CLASS_CASES.items())},
            "oracle": {name: run_cli(argv) for name, argv in sorted(ORACLE_CASES.items())},
            "nested_bracket_check": nested_record()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
