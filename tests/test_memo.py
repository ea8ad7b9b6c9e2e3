"""The per-algebra memo tables of the L, d, q_1^(k) and G_k workers must not
change what a call does under the weight cap: a warm table behaves as a cold
one, and after the cap is restored the values match a fresh algebra's."""

import pytest

from fockcalc import (
    TruncationExceeded,
    boundary_d,
    canonicalize,
    g_class,
    load_algebra,
    q1_kth_bracket,
    set_max_weight,
    virasoro,
)
from fockcalc.surface import preset_path


def fresh_p2():
    """A new p2 instance, so its memo tables start empty."""
    return load_algebra(str(preset_path("p2")))


def l1_unit(alg):
    v = canonicalize(alg, [(2, alg.basis_element("h")), (1, alg.unit())])
    return virasoro(1, alg.unit())(v)


def d_weight3(alg):
    v = canonicalize(alg, [(2, alg.basis_element("h")), (1, alg.unit())])
    return boundary_d(alg)(v)


def q1_second_bracket(alg):
    v = canonicalize(alg, [(1, alg.basis_element("h")), (1, alg.unit())])
    return q1_kth_bracket(2, alg.basis_element("h"))(v)


def g2_class(alg):
    return g_class(2, alg.basis_element("h"), 3).value


# call -> a cap that the call's input fits but its computation climbs past
CASES = {
    "virasoro": (l1_unit, 3),
    "boundary_d": (d_weight3, 3),
    "q1_kth_bracket": (q1_second_bracket, 2),
    "g_class": (g2_class, 3),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_warm_memo_respects_weight_cap(name):
    call, cap = CASES[name]
    alg = fresh_p2()
    call(alg)
    previous = set_max_weight(cap)
    try:
        with pytest.raises(TruncationExceeded):
            call(alg)
    finally:
        set_max_weight(previous)
    assert call(alg).terms == call(fresh_p2()).terms
