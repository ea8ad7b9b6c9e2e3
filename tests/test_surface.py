"""Frobenius algebra loading, axioms, pairing, diagonal, Euler class."""

import json

import pytest

from fockcalc import (
    AxiomViolation,
    DegreeError,
    ParseError,
    Rat,
    UnknownBasisId,
    diagonal_pushforward,
    dual_basis,
    euler_class,
    integral,
    load_algebra,
    load_preset,
    mul,
    parse_element,
)
from fockcalc._linalg import axpy
from fockcalc._rat import parse_rat
from fockcalc.surface import PRESETS, preset_path


def doc_p2():
    return json.loads(preset_path("p2").read_text())


# -- loading and validation ----------------------------------------------------


def test_presets_load_with_expected_dimensions():
    dims = {"p2": 3, "p1xp1": 4, "torus_like": 16, "point": 1}
    for name in PRESETS:
        alg = load_preset(name)
        assert alg.dim == dims[name]


def test_presets_load_once_per_name():
    # one instance per name, however it is passed; an unknown name raises
    # each time and is not kept
    from fockcalc.surface import _cached_preset
    for name in PRESETS:
        assert load_preset(name) is load_preset(name=name)
    kept = _cached_preset.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ParseError, match="unknown preset"):
            load_preset("nope")
    assert _cached_preset.cache_info().currsize == kept == len(PRESETS)


def test_degree_out_of_range_rejected():
    doc = doc_p2()
    doc["basis"][1]["degree"] = 5
    with pytest.raises(DegreeError):
        load_algebra(doc)


def test_integral_below_top_degree_rejected():
    doc = doc_p2()
    doc["integral"] = [{"basis": "h", "coeff": "1"}]
    with pytest.raises(AxiomViolation):
        load_algebra(doc)


def test_missing_integral_means_singular_pairing():
    from fockcalc import SingularPairing
    doc = doc_p2()
    doc["integral"] = []
    with pytest.raises(SingularPairing):
        load_algebra(doc)


def test_unit_law_violation_rejected():
    doc = doc_p2()
    doc["products"].insert(0, {"left": "1", "right": "h",
                               "result": [{"basis": "h", "coeff": "2"}]})
    with pytest.raises(AxiomViolation):
        load_algebra(doc)


def test_wrong_product_order_rejected():
    doc = doc_p2()
    doc["products"].append({"left": "h2", "right": "h", "result": []})
    with pytest.raises(ParseError):
        load_algebra(doc)


def test_broken_grading_rejected():
    doc = doc_p2()
    doc["products"] = [{"left": "h", "right": "h",
                        "result": [{"basis": "h", "coeff": "1"}]}]
    with pytest.raises(AxiomViolation):
        load_algebra(doc)


def test_associativity_violation_rejected():
    # flip one sign in the exterior-algebra table: (x1 x2) x3 != x1 (x2 x3)
    doc = json.loads(preset_path("torus_like").read_text())
    for entry in doc["products"]:
        if entry["left"] == "x1" and entry["right"] == "x2x3":
            entry["result"][0]["coeff"] = "-1"
    with pytest.raises(AxiomViolation, match="associativity"):
        load_algebra(doc)


# -- products and integral -----------------------------------------------------


def test_product_examples(p2, torus):
    h = p2.basis_element("h")
    assert mul(h, h) == p2.basis_element("h2")
    assert mul(p2.unit(), h) == h
    x1 = torus.basis_element("x1")
    assert mul(x1, x1).is_zero()
    x2 = torus.basis_element("x2")
    assert mul(x2, x1) == -torus.basis_element("x1x2")


def test_integral_examples(p2, torus):
    assert integral(p2.basis_element("h2")) == 1
    assert integral(p2.basis_element("h")) == 0
    assert integral(torus.basis_element("x1x2x3x4")) == 1


def test_supercommutativity_all_pairs(torus):
    for i in range(torus.dim):
        for j in range(torus.dim):
            ei, ej = torus.basis_element(i), torus.basis_element(j)
            sign = -1 if (torus.degrees[i] & 1 and torus.degrees[j] & 1) else 1
            assert mul(ei, ej) == mul(ej, ei).scale(sign)


def test_graded_product_degrees(p1xp1):
    for i in range(p1xp1.dim):
        for j in range(p1xp1.dim):
            prod = mul(p1xp1.basis_element(i), p1xp1.basis_element(j))
            if not prod.is_zero():
                assert prod.degree() == p1xp1.degrees[i] + p1xp1.degrees[j]


def test_pairing_block_antidiagonal(p2, torus):
    for alg in (p2, torus):
        for i in range(alg.dim):
            for j in range(alg.dim):
                if alg.degrees[i] + alg.degrees[j] != 4:
                    assert alg.pairing[i][j] == 0


# -- dual basis ------------------------------------------------------------------


def test_dual_basis_p2_frozen(p2):
    duals = dual_basis(p2)
    assert duals[p2.index_of["1"]] == p2.basis_element("h2")
    assert duals[p2.index_of["h"]] == p2.basis_element("h")
    assert duals[p2.index_of["h2"]] == p2.unit()


def test_dual_basis_defining_property(p1xp1, torus):
    for alg in (p1xp1, torus):
        duals = dual_basis(alg)
        for i in range(alg.dim):
            for j in range(alg.dim):
                expect = Rat(1) if i == j else Rat(0)
                assert integral(mul(alg.basis_element(i), duals[j])) == expect


def test_dual_basis_torus_sign(torus):
    # the pairing fixes dual(x1) = +x2x3x4 here since x1 * x2x3x4 = top
    assert dual_basis(torus)[torus.index_of["x1"]] == torus.basis_element("x2x3x4")


# -- diagonal pushforward ---------------------------------------------------------


def expand_pairs(pairs, alg):
    """Tensor coefficients {(u, v): c} of a list of element pairs."""
    out = {}
    for x, y in pairs:
        for u, cu in x.coeffs.items():
            for v, cv in y.coeffs.items():
                out[(u, v)] = out.get((u, v), 0) + cu * cv
    return {k: c for k, c in out.items() if c}


def test_diagonal_p2_frozen(p2):
    i1, ih, ih2 = (p2.index_of[k] for k in ("1", "h", "h2"))
    assert expand_pairs(diagonal_pushforward(p2.unit()), p2) == {
        (i1, ih2): 1, (ih, ih): 1, (ih2, i1): 1}
    assert expand_pairs(diagonal_pushforward(p2.basis_element("h")), p2) == {
        (ih, ih2): 1, (ih2, ih): 1}


def test_adjunction_identity_all_presets():
    # int((tau a)(b (x) c)) = int(a b c) with the Koszul product on the square,
    # on the presets and on three scaled algebras: p2 at int(h2) = 2/3, whose
    # dual basis has denominators, torus_like with its integral times -1/2,
    # and p1xp1 times 5/7; and the two contractions that L reads off the
    # product table in place of the triples: tau(e_i) contracted on its right
    # factor against e_c is e_i e_c (the projection formula, the sign
    # convention L reads), sum_v t_uv int(e_v e_c) = (e_i e_c)_u, and that
    # contracted again against e_p is sum_{u,v} t_uv int(e_v e_c) int(e_u e_p)
    # = int(e_i e_c e_p)
    from closure_suites import fresh_algebra
    algebras = [load_preset(name) for name in PRESETS] + [
        fresh_algebra("p2", Rat(2, 3)), fresh_algebra("torus_like", Rat(-1, 2)),
        fresh_algebra("p1xp1", Rat(5, 7))]
    for alg in algebras:
        name = alg.name
        for i in range(alg.dim):
            contracted = [{} for _ in range(alg.dim)]
            for u, v, t in alg.kunneth_triples(i):
                for c in range(alg.dim):
                    axpy(contracted[c], {u: t * alg.pairing[v][c]})
            for c in range(alg.dim):
                assert contracted[c] == alg.mul_basis(i, c), (name, i, c)
                product = mul(alg.basis_element(i), alg.basis_element(c))
                for p in range(alg.dim):
                    twice = sum(w * alg.pairing[u][p] for u, w in contracted[c].items())
                    assert twice == integral(mul(product, alg.basis_element(p))), (
                        name, i, c, p)
        for a_idx in range(alg.dim):
            a = alg.basis_element(a_idx)
            coeffs = expand_pairs(diagonal_pushforward(a), alg)
            for b in range(alg.dim):
                for c in range(alg.dim):
                    lhs = Rat(0)
                    for (u, v), t in coeffs.items():
                        sign = -1 if (alg.degrees[v] & 1 and alg.degrees[b] & 1) else 1
                        lhs += sign * t * alg.pairing[u][b] * alg.pairing[v][c]
                    rhs = integral(mul(a, mul(alg.basis_element(b),
                                              alg.basis_element(c))))
                    assert lhs == rhs, (name, a_idx, b, c)


# -- Euler class -------------------------------------------------------------------


def test_euler_class_values(p2, p1xp1, torus):
    assert euler_class(p2) == p2.basis_element("h2").scale(3)
    assert integral(euler_class(p2)) == 3
    assert euler_class(torus).is_zero()
    assert integral(euler_class(p1xp1)) == 4


def test_euler_integral_is_alternating_dimension_count():
    for name in PRESETS:
        alg = load_preset(name)
        chi = sum((-1) ** d for d in alg.degrees)
        assert integral(euler_class(alg)) == chi


# -- element parsing ----------------------------------------------------------------


def test_parse_element(p2):
    e = parse_element(p2, "1/2*h + 3*h2")
    assert e == p2.basis_element("h").scale(Rat(1, 2)) + p2.basis_element("h2").scale(3)
    assert parse_element(p2, "h") == p2.basis_element("h")
    assert parse_element(p2, "-h") == -p2.basis_element("h")
    assert parse_element(p2, "2") == p2.unit().scale(2)
    with pytest.raises(UnknownBasisId):
        parse_element(p2, "nope")
    with pytest.raises(ParseError):
        parse_element(p2, "1/0*h")
    with pytest.raises(ParseError):
        parse_element(p2, "0.5*h")


def test_parse_element_whitespace(p2, torus):
    # whitespace stands only between tokens, around +, - and *; inside a term
    # it once merged the tokens: "x1 x2" parsed as x1x2 and "1 2*x1" as 12*x1
    assert parse_element(p2, "3/4*h - 2*h2") == (
        p2.basis_element("h").scale(Rat(3, 4)) - p2.basis_element("h2").scale(2))
    assert parse_element(torus, " 1/2 * x1 +3*x3 ") == (
        torus.basis_element("x1").scale(Rat(1, 2)) + torus.basis_element("x3").scale(3))
    for text in ("x1 x2", "1 2*x1", "1/ 2*x1", "x1 x2 + x3"):
        with pytest.raises(ParseError, match="whitespace"):
            parse_element(torus, text)


def test_parse_rat_grammar():
    assert parse_rat("3") == 3
    assert parse_rat(" -3/4 ") == Rat(-3, 4)
    assert parse_rat("+2/6") == Rat(1, 3)
    assert parse_rat(5) == 5


@pytest.mark.parametrize("text", ["0.5", "1e3", "1_000", ".5", "1/2.0", "1 / 2",
                                  "--1", "1/-2", "inf", "nan", "", "٣"])
def test_parse_rat_rejects_outside_grammar(text):
    with pytest.raises(ParseError):
        parse_rat(text)
