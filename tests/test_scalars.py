"""The scalar policy: ints until a division makes a Rat, never a float."""

import pytest

from fockcalc import (
    CentralElement,
    FockVector,
    Rat,
    adjoint_matrix,
    boundary_d,
    canonicalize,
    load_preset,
    monomial_basis,
    q,
)
from fockcalc._rat import parse_rat, ratio
from fockcalc.surface import PRESETS


def test_parse_rat_and_ratio_are_int_first():
    assert type(parse_rat("4")) is int and type(parse_rat("6/3")) is int
    assert parse_rat("3/4") == Rat(3, 4) and isinstance(parse_rat("3/4"), Rat)
    assert type(ratio(-12, 4)) is int and ratio(-12, 4) == -3
    assert ratio(1, 2) == Rat(1, 2)
    assert type(ratio(Rat(4, 2))) is int


INEXACT = [0.1, "0.5", 1.0]


@pytest.mark.parametrize("scalar", INEXACT)
@pytest.mark.parametrize("entry", [
    "AlgebraElement.scale", "FockVector.scale", "LinearOperator.__mul__",
    "CentralElement.scale", "CentralElement.__init__", "SurfaceAlgebra.element"])
def test_inexact_scalars_are_rejected(p2, entry, scalar):
    h = p2.basis_element("h")
    calls = {
        "AlgebraElement.scale": lambda: p2.unit().scale(scalar),
        "FockVector.scale": lambda: canonicalize(p2, [(1, h)]).scale(scalar),
        "LinearOperator.__mul__": lambda: q(1, h) * scalar,
        "CentralElement.scale": lambda: CentralElement.class_sum((2, 1)).scale(scalar),
        "CentralElement.__init__": lambda: CentralElement(3, {(3,): scalar}),
        "SurfaceAlgebra.element": lambda: p2.element({"h": scalar}),
    }
    with pytest.raises(TypeError):
        calls[entry]()


def test_exact_scalars_are_accepted(p2):
    assert p2.unit().scale(Rat(1, 2)).coeffs == {p2.unit_index: Rat(1, 2)}
    assert p2.element({"h": 3}).coeffs == {p2.index_of["h"]: 3}
    assert CentralElement(3, {(3,): 2}).scale(Rat(1, 2)).coeffs == {(3,): 1}


def _assert_no_float(values, what):
    for x in values:
        assert isinstance(x, (int, Rat)), (what, x)


@pytest.mark.parametrize("name", PRESETS)
def test_preset_structure_is_integral(name):
    alg = load_preset(name)
    scalars = {
        "product": [c for row in alg.product for cell in row.values()
                    for c in cell.values()],
        "integral": alg.integral_vec,
        "pairing": [c for row in alg.pairing for c in row],
        "duals": [c for row in alg._dual_coeffs for c in row],
        "kunneth": [t for i in range(alg.dim) for _, _, t in alg.kunneth_triples(i)],
        "euler": list(alg.euler.coeffs.values()),
    }
    for what, values in scalars.items():
        assert all(type(x) is int for x in values), (name, what, values)


@pytest.mark.parametrize("name", PRESETS)
def test_no_float_reaches_any_scalar(name):
    alg = load_preset(name)
    _assert_no_float([c for row in alg.pairing for c in row], "pairing")
    _assert_no_float([c for row in alg._dual_coeffs for c in row], "duals")
    _assert_no_float([t for i in range(alg.dim)
                      for _, _, t in alg.kunneth_triples(i)], "kunneth")
    _assert_no_float(alg.euler.coeffs.values(), "euler")
    d = boundary_d(alg)
    for n in range(4):
        for mono in monomial_basis(n, alg):
            _assert_no_float(d(FockVector(alg, {mono: 1})).terms.values(), "d")
    if alg.top_degree == 4:
        cols, _, _ = adjoint_matrix(d, (2, 2))
        assert cols and any(any(col) for col in cols)
        _assert_no_float([c for col in cols for c in col], "adjoint")
