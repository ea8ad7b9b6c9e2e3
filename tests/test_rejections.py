"""Rejected input: malformed algebra documents and element strings, and
public API arguments outside their domain, each with its exception class."""

import json

import pytest

from fockcalc import (
    AxiomViolation,
    FockVector,
    InvalidPart,
    ParseError,
    UnknownBasisId,
    apply_formal_g,
    canonicalize,
    commutator_expand,
    derivative,
    g_class,
    inner_product,
    load_algebra,
    load_preset,
    monomial_basis,
    nested_bracket_check,
    parse_element,
    q,
    q1_kth_bracket,
    vacuum_unit,
    verify_relations,
    virasoro,
)
from fockcalc.class_algebra import (
    CentralElement,
    check_partition,
    class_product,
    generation_closure,
)
from fockcalc.cli import main
from fockcalc.fock import max_weight, prepend_part, set_max_weight
from fockcalc.surface import preset_path

DELETE = object()


def mutated(preset, path, value=DELETE):
    """Load `preset` with the entry at `path` (keys and list indices) set to
    `value`, or deleted when no value is given."""
    def load(tmp_path):
        doc = json.loads(preset_path(preset).read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return load_algebra(doc)
    return load


def invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "bad",')
    return load_algebra(str(path))


H_SQUARED = {"left": "h", "right": "h", "result": [{"basis": "h2", "coeff": "1"}]}
X1_SQUARED = {"left": "x1", "right": "x1",
              "result": [{"basis": "x1x2", "coeff": "1"}]}
NO_TOP_DEGREE = [{"id": "1", "degree": 0}, {"id": "h", "degree": 2}]


def element(text):
    return lambda tmp_path: parse_element(load_preset("p2"), text)


# case: (action on tmp_path, exception class, message fragment)
DOCUMENT_AND_ELEMENT_REJECTIONS = {
    "missing field": (
        mutated("p2", ("unit",)), ParseError, "missing field 'unit'"),
    "basis entry without id": (
        mutated("p2", ("basis", 1, "id")), ParseError, "basis entries need"),
    "basis entry without degree": (
        mutated("p2", ("basis", 1, "degree")), ParseError, "basis entries need"),
    "duplicate id": (
        mutated("p2", ("basis", 2, "id"), "h"), ParseError, "duplicate basis id"),
    "empty basis": (
        mutated("p2", ("basis",), []), ParseError, "empty basis"),
    "no degree-0 class": (
        mutated("p2", ("basis", 0, "degree"), 2), AxiomViolation,
        "one degree-0 class"),
    "unit not the degree-0 class": (
        mutated("p2", ("unit",), "h"), AxiomViolation, "unit must be"),
    "product entry missing a field": (
        mutated("p2", ("products", 0, "result")), ParseError,
        "product entries need"),
    "unknown id in a product": (
        mutated("p2", ("products", 0, "left"), "zz"), ParseError,
        "product references unknown id"),
    "duplicate product entry": (
        mutated("p2", ("products",), [H_SQUARED, H_SQUARED]), ParseError,
        "duplicate product entry"),
    "odd class with a nonzero square": (
        mutated("torus_like", ("products", 0), X1_SQUARED), AxiomViolation,
        "nonzero square"),
    "multi-class algebra with no degree-4 part": (
        mutated("point", ("basis",), NO_TOP_DEGREE), AxiomViolation,
        "degree-4 part"),
    "canonical class not in degree 2": (
        mutated("p2", ("canonical_class",), [{"basis": "h2", "coeff": "1"}]),
        AxiomViolation, "canonical class must be degree 2"),
    "combination not an array": (
        mutated("p2", ("integral",), {"basis": "h2", "coeff": "1"}),
        ParseError, "expected an array"),
    "combination entry without basis": (
        mutated("p2", ("integral", 0, "basis")), ParseError,
        "entries need 'basis' and 'coeff'"),
    "combination entry without coeff": (
        mutated("p2", ("integral", 0, "coeff")), ParseError,
        "entries need 'basis' and 'coeff'"),
    "unknown id in the integral": (
        mutated("p2", ("integral", 0, "basis"), "zz"), ParseError,
        "integral: unknown basis id"),
    "invalid JSON": (invalid_json, ParseError, "invalid JSON"),
    "unknown preset": (
        lambda tmp_path: load_preset("nope"), ParseError, "unknown preset"),
    "empty element expression": (
        element("  "), ParseError, "empty element expression"),
    "dangling sign": (element("h +"), ParseError, "dangling sign"),
    "unknown id in element": (
        lambda tmp_path: load_preset("p2").element({"zz": 1}), UnknownBasisId,
        "no basis class 'zz'"),
    "unknown id in basis_element": (
        lambda tmp_path: load_preset("p2").basis_element("zz"), UnknownBasisId,
        "no basis class 'zz'"),
}


@pytest.mark.parametrize("case", list(DOCUMENT_AND_ELEMENT_REJECTIONS))
def test_document_and_element_rejections(case, tmp_path):
    action, error, match = DOCUMENT_AND_ELEMENT_REJECTIONS[case]
    with pytest.raises(error, match=match):
        action(tmp_path)


def test_invalid_json_exits_2_through_the_cli(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "bad",')
    assert main(["algebra", "validate", str(path)]) == 2
    assert "ParseError" in capsys.readouterr().err


def _p2():
    return load_preset("p2")


def _h():
    return _p2().basis_element("h")


def _q1_squared():
    """The p2 vector q_1(1)^2|0>."""
    p2 = _p2()
    return canonicalize(p2, [(1, p2.unit())] * 2)


def _formal_g_across_algebras(gamma_id):
    """G_1 of a p1xp1 class on the p2 vector q_1(1)^2|0>, which once read the
    class's colour indices in p2 (-q_2(h)|0> for f, IndexError for fg)."""
    gamma = load_preset("p1xp1").basis_element(gamma_id)
    return apply_formal_g(1, gamma, _q1_squared())


def _canonicalize_across_algebras(gamma_id):
    """q_1 of a p1xp1 class in the p2 Fock space, which once read the class's
    colour indices in p2 (q_1(h)|0> for f, IndexError for fg)."""
    return canonicalize(_p2(), [(1, load_preset("p1xp1").basis_element(gamma_id))])


# case: (action, exception class, message fragment)
API_REJECTIONS = {
    "verify_relations of an unknown suite": (
        lambda: verify_relations("nope", _p2(), max_weight=1), ValueError,
        "unknown suite"),
    "verify_relations of a bool max_weight": (
        lambda: verify_relations("heisenberg", _p2(), max_weight=True), TypeError,
        "max_weight=True is not an int"),
    "verify_relations of a float max_weight": (
        lambda: verify_relations("heisenberg", _p2(), max_weight=2.0), TypeError,
        "max_weight=2.0 is not an int"),
    "verify_relations of a bool max_index": (
        lambda: verify_relations("heisenberg", _p2(), max_weight=2, max_index=True),
        TypeError, "max_index=True is not an int"),
    "verify_relations of a float max_index": (
        lambda: verify_relations("heisenberg", _p2(), max_weight=2, max_index=1.0),
        TypeError, "max_index=1.0 is not an int"),
    "prepend_part of size 0": (
        lambda: prepend_part((), 0, 0, _p2()), InvalidPart, "part size 0"),
    "monomial_basis of negative weight": (
        lambda: monomial_basis(-1, _p2()), ValueError, "must be nonnegative"),
    "derivative of order 0": (
        lambda: derivative(q(1, _h()), 0), ValueError, "derivative order"),
    "q1_kth_bracket with k < 0": (
        lambda: q1_kth_bracket(-1, _h()), ValueError, "k must be"),
    "vacuum_unit of negative weight": (
        lambda: vacuum_unit(_p2(), -1), ValueError, "n must be"),
    "g_class with k < 0": (
        lambda: g_class(-1, _h(), 2), IndexError, "g_class needs"),
    "commutator_expand on a non-creation part": (
        lambda: commutator_expand(q(1, _h()), 1, ((0, 0),)), ValueError,
        "creation parts"),
    "apply_formal_g across algebras": (
        lambda: _formal_g_across_algebras("f"), ValueError,
        "operators over different algebras"),
    "apply_formal_g across algebras, colour past the other's basis": (
        lambda: _formal_g_across_algebras("fg"), ValueError,
        "operators over different algebras"),
    "apply_formal_g with k < 0": (
        lambda: apply_formal_g(-1, _h(), _q1_squared()), ValueError, "k must be"),
    "nested_bracket_check with k < 0": (
        lambda: nested_bracket_check(-1, _h(), [], _p2(), 2), ValueError, "k must be"),
    "q of a float index": (
        lambda: q(1.5, _h()), TypeError, "not an int"),
    "q of a bool index": (
        lambda: q(True, _h()), TypeError, "not an int"),
    "virasoro of a whole float index": (
        lambda: virasoro(1.0, _h()), TypeError, "not an int"),
    "q1_kth_bracket of a float k": (
        lambda: q1_kth_bracket(1.5, _h()), TypeError, "not an int"),
    "commutator_expand with a float a": (
        lambda: commutator_expand(q(1, _h()), 1.5, ((1, 0), (1, 0))), TypeError,
        "not an int"),
    "canonicalize with a float part": (
        lambda: canonicalize(_p2(), [(1.5, _h())]), TypeError, "not an int"),
    "canonicalize with a whole float part": (
        lambda: canonicalize(_p2(), [(2.0, _h())]), TypeError, "not an int"),
    "canonicalize across algebras": (
        lambda: _canonicalize_across_algebras("f"), ValueError, "different algebras"),
    "canonicalize across algebras, colour past the other's basis": (
        lambda: _canonicalize_across_algebras("fg"), ValueError,
        "different algebras"),
    "inner_product across algebras": (
        lambda: inner_product(FockVector.vacuum(_p2()),
                              FockVector.vacuum(load_preset("p1xp1"))),
        ValueError, "vectors over different algebras"),
    "check_partition not weakly decreasing": (
        lambda: check_partition((1, 2)), ValueError, "weakly decreasing"),
    "check_partition with the wrong total": (
        lambda: check_partition((2, 1), 4), ValueError, "not a partition of 4"),
    "check_partition with a float part": (
        lambda: check_partition((2.0, 1)), TypeError, "not an int"),
    "check_partition with a float rank": (
        lambda: check_partition((2, 1), 3.0), TypeError, "not an int"),
    "class_product with float parts that sum to n": (
        lambda: class_product((1.5, 1.5), (2, 1), 3), TypeError, "not an int"),
    "class_sum with a float part": (
        lambda: CentralElement.class_sum((2.0, 1)), TypeError, "not an int"),
    "set_max_weight of a float": (
        lambda: set_max_weight(2.5), TypeError, "not an int"),
    "set_max_weight of a string": (
        lambda: set_max_weight("3"), TypeError, "not an int"),
    "set_max_weight of a negative cap": (
        lambda: set_max_weight(-1), ValueError, "negative"),
    "generation_closure with a generator of another rank": (
        lambda: generation_closure([CentralElement.class_sum((2, 1))], 4), ValueError,
        "rank 3 in a closure of rank 4"),
}


@pytest.mark.parametrize("case", list(API_REJECTIONS))
def test_api_argument_rejections(case):
    action, error, match = API_REJECTIONS[case]
    cap = max_weight()
    with pytest.raises(error, match=match):
        action()
    assert max_weight() == cap


def test_oracle_product_rejects_a_non_integer_part(capsys):
    code = main(["oracle", "product", "--n", "3", "--lambda", "2,x",
                 "--mu", "2,1"])
    assert code == 2
    assert "bad partition" in capsys.readouterr().err
