"""The per-algebra memo tables of the L, d, q_1^(k) and G_k workers must not
change what a call does under the weight cap: a warm table behaves as a cold
one, and after the cap is restored the values match a fresh algebra's.

Also: L_n needs no cap above the weights of its input and its result."""

import pytest

from fockcalc import (
    Rat,
    TruncationExceeded,
    apply_formal_g,
    boundary_d,
    canonicalize,
    load_algebra,
    q1_kth_bracket,
    set_max_weight,
    virasoro,
)
from fockcalc.surface import preset_path


def fresh_p2():
    """A new p2 instance, so its memo tables start empty."""
    return load_algebra(str(preset_path("p2")))


def weight3(alg):
    """q_2(h) q_1(1)|0>."""
    return canonicalize(alg, [(2, alg.basis_element("h")), (1, alg.unit())])


def weight2(alg):
    return canonicalize(alg, [(1, alg.basis_element("h")), (1, alg.unit())])


def unit_cube(alg):
    return canonicalize(alg, [(1, alg.unit())] * 3)


def l1_unit(v):
    return virasoro(1, v.algebra.unit())(v)


def d(v):
    return boundary_d(v.algebra)(v)


def q1_second_bracket(v):
    return q1_kth_bracket(2, v.algebra.basis_element("h"))(v)


def g2_class(v):
    # the value of g_class(2, h, 3), on an input built beforehand
    return apply_formal_g(2, v.algebra.basis_element("h"), v).scale(Rat(1, 6))


# call -> (its input, built under the default cap; the call; a cap that the
# call's computation climbs past)
CASES = {
    "virasoro": (weight3, l1_unit, 3),
    "boundary_d": (weight3, d, 2),
    "q1_kth_bracket": (weight2, q1_second_bracket, 2),
    "g_class": (unit_cube, g2_class, 2),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_warm_memo_respects_weight_cap(name):
    build, call, cap = CASES[name]
    alg = fresh_p2()
    v = build(alg)
    call(v)
    previous = set_max_weight(cap)
    try:
        with pytest.raises(TruncationExceeded):
            call(v)
    finally:
        set_max_weight(previous)
    assert call(v).terms == call(build(fresh_p2())).terms


@pytest.mark.parametrize("call, cap", [(d, 3), (l1_unit, 4)])
def test_virasoro_needs_no_cap_above_input_and_result(call, cap):
    # d keeps the weight 3 and L_1 raises it to 4; applying q_{n-m} as a
    # creation before contracting would climb to weight 2w + n
    expected = call(weight3(fresh_p2()))
    alg = fresh_p2()
    v = weight3(alg)
    previous = set_max_weight(cap)
    try:
        assert call(v).terms == expected.terms
    finally:
        set_max_weight(previous)


def exact_terms(v):
    """The terms of v with the type of each coefficient, so an int and an
    equal Fraction differ."""
    return {m: (c.__class__, c) for m, c in v.terms.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_call_on_another_algebra_empties_the_live_tables(name):
    build, call, _ = CASES[name]
    a, b = fresh_p2(), fresh_p2()
    va = build(a)
    call(va)
    assert a._op_caches
    call(build(b))
    assert b._op_caches and not a._op_caches
    # A -> B -> A gives what a fresh algebra gives
    assert exact_terms(call(va)) == exact_terms(call(build(fresh_p2())))


@pytest.mark.parametrize("name", sorted(CASES))
def test_lower_cap_after_another_algebra_raises_as_cold(name):
    # A under the default cap, then B, then A under a cap its computation
    # climbs past: A raises where a cold algebra does, and so does B, whose
    # warm tables are live when the cap drops
    build, call, cap = CASES[name]
    a, b = fresh_p2(), fresh_p2()
    va, vb, cold = build(a), build(b), build(fresh_p2())
    call(va)
    call(vb)
    previous = set_max_weight(cap)
    try:
        for v in (vb, va, cold):
            with pytest.raises(TruncationExceeded):
                call(v)
    finally:
        set_max_weight(previous)
    assert exact_terms(call(va)) == exact_terms(call(build(fresh_p2())))
