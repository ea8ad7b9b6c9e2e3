"""CLI surface: golden outputs, exit codes, structured records, determinism."""

import json

import pytest

from fockcalc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_validate_preset(capsys):
    code, out, _ = run(capsys, "algebra", "validate", "p2")
    assert code == 0
    assert out == "3 basis classes, pairing nondegenerate\n"


def test_algebra_validate_presets_path(capsys):
    code, out, _ = run(capsys, "algebra", "validate", "presets/torus_like")
    assert code == 0
    assert out.startswith("16 basis classes")


def test_algebra_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad",
        "basis": [{"id": "1", "degree": 0}, {"id": "t", "degree": 4}],
        "unit": "1",
        "products": [],
        "integral": [],
    }))
    code, out, err = run(capsys, "algebra", "validate", str(bad))
    assert code == 2
    assert "SingularPairing" in err


def test_algebra_validate_missing_file(capsys):
    code, _, err = run(capsys, "algebra", "validate", "/nope/missing.json")
    assert code == 2


def test_class_golden(capsys):
    code, out, _ = run(capsys, "class", "B", "--i", "1", "--gamma", "h",
                       "--n", "2", "--algebra", "p2")
    assert code == 0 and out == "1 * q_2(h) |0>\n"
    code, out, _ = run(capsys, "class", "G", "--i", "1", "--gamma", "h",
                       "--n", "2", "--algebra", "p2")
    assert code == 0 and out == "-1/2 * q_2(h) |0>\n"


def test_class_index_error(capsys, monkeypatch):
    code, _, err = run(capsys, "class", "B", "--i", "3", "--gamma", "h",
                       "--n", "2", "--algebra", "p2")
    assert code == 2 and "IndexError" in err
    # G rejects the index before it computes anything
    from fockcalc import generators

    def no_compute(*args):
        raise AssertionError("g_class ran before the index check")

    monkeypatch.setattr(generators, "g_class", no_compute)
    for i in ("3", "-1"):
        code, _, err = run(capsys, "class", "G", "--i", i, "--gamma", "h",
                           "--n", "2", "--algebra", "p2")
        assert code == 2 and "IndexError: need 0 <= i < n" in err


def test_class_gamma_combination(capsys):
    code, out, _ = run(capsys, "class", "B", "--i", "0",
                       "--gamma", "1/2*h + 3*h2", "--n", "1", "--algebra", "p2")
    assert code == 0
    assert out == "1/2 * q_1(h) |0> + 3 * q_1(h2) |0>\n"


def test_class_unknown_gamma(capsys):
    code, _, err = run(capsys, "class", "B", "--i", "0", "--gamma", "zz",
                       "--n", "1", "--algebra", "p2")
    assert code == 2 and "UnknownBasisId" in err


def test_oracle_product_golden(capsys):
    code, out, _ = run(capsys, "oracle", "product", "--n", "3",
                       "--lambda", "2,1", "--mu", "2,1")
    assert code == 0 and out == "3*C[1,1,1] + 3*C[3]\n"


def test_oracle_generate_golden(capsys):
    code, out, _ = run(capsys, "oracle", "generate", "--n", "4")
    assert code == 0 and out == "dim 5 / p(4) 5 : GENERATED\n"
    code, out, _ = run(capsys, "oracle", "generate", "--n", "2")
    assert code == 0 and out == "dim 2 / p(2) 2 : GENERATED\n"


def test_oracle_cap_exit_code(capsys):
    code, _, err = run(capsys, "oracle", "generate", "--n", "11")
    assert code == 3


def test_oracle_drop_two_cycle_diagnostic(capsys):
    code, out, _ = run(capsys, "oracle", "generate", "--n", "3",
                       "--drop-two-cycle")
    assert code == 0  # diagnostic never gates
    assert "NOT GENERATED" in out


def test_verify_exit_codes(capsys):
    code, out, err = run(capsys, "verify", "--suite", "heisenberg",
                         "--algebra", "p2", "--max-weight", "3",
                         "--max-index", "2")
    assert code == 0
    assert "result: PASS" in out
    assert "wall_time" in err  # timing on stderr only


def test_verify_multi_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "heisenberg,qprime",
                         "--algebra", "p2", "--max-weight", "2",
                         "--max-index", "1")
    assert code == 0
    assert out.count("result: PASS") == 2
    assert "suite: heisenberg" in out and "suite: qprime" in out
    code, out, _ = run(capsys, "--format", "structured", "verify",
                       "--suite", "heisenberg,Lq", "--algebra", "p2",
                       "--max-weight", "2", "--max-index", "1")
    record = json.loads(out)
    assert record["passed"] is True and len(record["suites"]) == 2


def test_verify_max_index_needs_an_indexed_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "expansion,nested_bracket",
                       "--algebra", "p2", "--max-weight", "1", "--max-index", "2")
    assert code == 2 and "--max-index does not apply" in err
    code, out, _ = run(capsys, "verify", "--suite", "heisenberg,expansion",
                       "--algebra", "p2", "--max-weight", "1", "--max-index", "1")
    assert code == 0 and out.count("result: PASS") == 2


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus", "--algebra", "p2")
    assert code == 2 and "unknown suite" in err


@pytest.mark.parametrize("argv", [
    ("--suite", ","),
    ("--suite", "heisenberg", "--max-weight", "-1"),
    ("--suite", "heisenberg", "--max-index", "0"),
    ("--suite", "Lq", "--max-index", "-2"),
    ("--suite", "heisenberg,expansion", "--max-weight", "0"),
])
def test_verify_that_checks_nothing_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, "verify", "--algebra", "p2", *argv)
    assert code == 2 and out == ""
    assert "ValueError" in err


def test_verify_ll_at_index_zero_still_checks(capsys):
    # [L_0(a), L_0(b)] = 0 is an identity with checks, not an empty sweep
    code, out, _ = run(capsys, "verify", "--suite", "LL", "--algebra", "p2",
                       "--max-weight", "2", "--max-index", "0")
    assert code == 0 and "result: PASS" in out and "checked: 0 " not in out


def test_verify_per_instance_counts(capsys):
    code, out, _ = run(capsys, "--format", "structured", "verify", "--suite",
                       "qprime", "--algebra", "p2", "--max-weight", "2",
                       "--max-index", "2")
    record = json.loads(out)
    counts = record["instance_counts"]
    assert set(counts) == {"n=-2", "n=-1", "n=1", "n=2"}
    assert sum(counts.values()) == record["checked"]


def test_verify_structured_record(capsys):
    code, out, _ = run(capsys, "--format", "structured", "verify", "--suite",
                       "Lq", "--algebra", "p2", "--max-weight", "2")
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["passed"] is True
    assert record["suite"] == "Lq"
    assert "wall_time" not in record  # byte-stable stdout


def test_verify_expansion_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "expansion",
                       "--algebra", "p2", "--max-weight", "3")
    assert code == 0 and "result: PASS" in out


def test_verify_nested_bracket_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "nested_bracket",
                       "--algebra", "p2", "--max-weight", "2")
    assert code == 0 and "result: PASS" in out


def test_verify_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "heisenberg", "--algebra", "p1xp1",
              "--max-weight", "2", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


F1_LIKE = {
    "name": "f1_like",
    "basis": [{"id": "1", "degree": 0}, {"id": "e", "degree": 2},
              {"id": "f", "degree": 2}, {"id": "pt", "degree": 4}],
    "unit": "1",
    "products": [
        {"left": "e", "right": "e", "result": [{"basis": "pt", "coeff": "-1"}]},
        {"left": "e", "right": "f", "result": [{"basis": "pt", "coeff": "1"}]},
        {"left": "f", "right": "f", "result": []},
    ],
    "integral": [{"basis": "pt", "coeff": "1"}],
    "canonical_class": [{"basis": "e", "coeff": "-2"}, {"basis": "f", "coeff": "-3"}],
}


def test_user_algebra_file_end_to_end(tmp_path, capsys):
    # a ruled-surface-like algebra authored as a file: validate it, then run
    # relation sweeps and a class expansion against it through the CLI
    path = tmp_path / "f1_like.json"
    path.write_text(json.dumps(F1_LIKE))
    code, out, _ = run(capsys, "algebra", "validate", str(path))
    assert code == 0 and out == "4 basis classes, pairing nondegenerate\n"
    for suite in ("heisenberg", "Lq", "qprime"):
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--algebra", str(path), "--max-weight", "3",
                           "--max-index", "2")
        assert code == 0, (suite, out)
    code, out, _ = run(capsys, "class", "B", "--i", "1", "--gamma", "e",
                       "--n", "2", "--algebra", str(path))
    assert code == 0 and out == "1 * q_2(e) |0>\n"


def test_structured_class_record(capsys):
    code, out, _ = run(capsys, "--format", "structured", "class", "G",
                       "--i", "1", "--gamma", "h", "--n", "3",
                       "--algebra", "p2")
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == 1 and record["family"] == "G"
