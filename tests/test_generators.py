"""Generator classes, the formal cup-product engine, and the expansion lemma."""

import math

import pytest

from fockcalc import (
    DomainError,
    FockVector,
    Rat,
    apply_formal_g,
    b_class,
    boundary_d,
    canonicalize,
    fh_support_bound,
    filtration_compare,
    g_class,
    inner_product,
    commutator_expand,
    monomial_basis,
    q,
    q1_kth_bracket,
    supercommutator,
    vacuum_unit,
    nested_bracket_check,
    virasoro,
)


def test_vacuum_unit(p2):
    one = p2.unit()
    assert vacuum_unit(p2, 0) == FockVector.vacuum(p2)
    assert vacuum_unit(p2, 2) == canonicalize(p2, [(1, one), (1, one)]).scale(Rat(1, 2))
    # pairing against a point-dual class: <1_[1], q_1(h2)|0>> = int(1 * h2) = 1
    assert inner_product(vacuum_unit(p2, 1),
                         canonicalize(p2, [(1, p2.basis_element("h2"))])) == 1


def test_b_class_values(p2):
    one, h = p2.unit(), p2.basis_element("h")
    assert b_class(1, h, 2).value == canonicalize(p2, [(2, h)])
    # defining normalization: 1/(n-i-1)! q_{i+1}(gamma) q_1(1)^{n-i-1}
    assert b_class(2, h, 4).value == canonicalize(p2, [(3, h), (1, one)])
    assert b_class(2, h, 5).value == canonicalize(
        p2, [(3, h), (1, one), (1, one)]).scale(Rat(1, 2))
    for n in range(1, 7):
        assert b_class(0, one, n).value == vacuum_unit(p2, n).scale(n)
    with pytest.raises(IndexError):
        b_class(3, h, 2)
    with pytest.raises(IndexError):
        b_class(-1, h, 2)


def test_b_class_bidegree(p2, torus):
    from fockcalc import bidegree
    for alg in (p2, torus):
        for c in range(alg.dim):
            gamma = alg.basis_element(c)
            cls = b_class(2, gamma, 4)
            assert bidegree(cls.value) == (4, alg.degrees[c] + 4)


def test_q1_kth_bracket(p2, torus):
    # k = 0 is creation, k = 1 is L_1
    h = p2.basis_element("h")
    vecs = [FockVector(p2, {m: Rat(1)})
            for w in range(5) for m in monomial_basis(w, p2)]
    assert all((q1_kth_bracket(0, h)(v) - q(1, h)(v)).is_zero() for v in vecs)
    assert all((q1_kth_bracket(1, h)(v) - virasoro(1, h)(v)).is_zero()
               for v in vecs)
    # k = 1..3 agree with the iterated brackets [d, q_1^(k-1)], for every
    # class of p2 and for classes of torus_like, whose odd ones bring Koszul
    # signs
    for alg, names, max_weight in ((p2, ("1", "h", "h2"), 4),
                                   (torus, ("1", "x1", "x1x2", "x1x2x3"), 2)):
        d = boundary_d(alg)
        vecs = [FockVector(alg, {m: Rat(1)})
                for w in range(max_weight + 1) for m in monomial_basis(w, alg)]
        for name in names:
            alpha = alg.basis_element(name)
            rhs = q(1, alpha)
            for k in (1, 2, 3):
                rhs = supercommutator(d, rhs)
                lhs = q1_kth_bracket(k, alpha)
                assert all((lhs(v) - rhs(v)).is_zero() for v in vecs), (alg.name, name, k)


def test_q1k_keeps_no_creation_images(p2):
    # q_1^(2) on a weight-3 monomial keeps k = 1 and k = 2 images, and no
    # q_1^(0) image of an intermediate
    from closure_suites import fresh_algebra
    alg = fresh_algebra("p2")
    h = alg.basis_element("h")
    v = canonicalize(alg, [(2, h), (1, alg.unit())])
    assert not q1_kth_bracket(2, h)(v).is_zero()
    assert {key[0] for key in alg._op_caches["q1k"]} == {1, 2}


def test_formal_g_engine(p2):
    one, h = p2.unit(), p2.basis_element("h")
    # G_k(gamma)|0> = 0
    for k in range(4):
        assert apply_formal_g(k, h, FockVector.vacuum(p2)).is_zero()
    # G_1(gamma)(q_1(1)^n|0>) = -(n!/2) B_1(gamma, n)
    for n in range(2, 6):
        A = canonicalize(p2, [(1, one)] * n)
        got = apply_formal_g(1, h, A)
        assert got == b_class(1, h, n).value.scale(Rat(-math.factorial(n), 2))
    # (n-1)! G_0(a, n) = q_1(1)^(n-1) q_1(a) |0>
    for n in range(1, 6):
        A = canonicalize(p2, [(1, one)] * n)
        got = apply_formal_g(0, h, A).scale(Rat(1, n))
        expect = canonicalize(p2, [(1, one)] * (n - 1) + [(1, h)])
        assert got == expect


def test_formal_g_outside_domain(p2):
    with pytest.raises(DomainError):
        apply_formal_g(1, p2.unit(), canonicalize(p2, [(2, p2.unit())]))


def test_g_class_identities(p2, p1xp1, torus, point):
    for alg in (p2, p1xp1, torus, point):
        for c in range(alg.dim):
            gamma = alg.basis_element(c)
            for n in range(1, 5):
                assert g_class(0, gamma, n).value == b_class(0, gamma, n).value
                if n >= 2:
                    assert (b_class(1, gamma, n).value
                            == g_class(1, gamma, n).value.scale(-2)), (alg.name, c, n)


def test_g1_h_2(p2):
    h = p2.basis_element("h")
    assert g_class(1, h, 2).value == canonicalize(p2, [(2, h)]).scale(Rat(-1, 2))


# -- expansion lemma -----------------------------------------------------------


def test_expansion_commuting_case(p2):
    h, one = p2.basis_element("h"), p2.unit()
    mono = (((1, p2.index_of["h"]),))
    got = commutator_expand(q(2, h), 1, mono)
    assert got == canonicalize(p2, [(2, h), (1, h)])


def test_expansion_boundary_case(p2):
    one = p2.unit()
    mono = ((2, p2.index_of["1"]),)
    got = commutator_expand(boundary_d(p2), 1, mono)
    assert got == boundary_d(p2)(FockVector(p2, {mono: Rat(1)}))


def test_expansion_l0_case(p2):
    h = p2.basis_element("h")
    mono = ((1, p2.index_of["h"]),)
    got = commutator_expand(virasoro(0, p2.unit()), 1, mono)
    assert got == canonicalize(p2, [(1, h)]).scale(-1)


def test_expansion_equals_direct_everywhere(p2):
    gs = [q(2, p2.basis_element(c)) for c in range(3)]
    gs += [virasoro(1, p2.basis_element(c)) for c in range(3)]
    gs += [virasoro(0, p2.unit()), boundary_d(p2)]
    for w in range(1, 5):
        for mono in monomial_basis(w, p2):
            for g in gs:
                direct = g(FockVector(p2, {mono: Rat(1)}))
                for a in range(1, min(3, len(mono)) + 1):
                    assert commutator_expand(g, a, mono) == direct, (g.name, mono, a)


def test_expansion_odd_sign_stress(torus):
    gs = [q(2, torus.basis_element("x1")),
          virasoro(1, torus.basis_element("x2")),
          boundary_d(torus)]
    for w in range(1, 4):
        for mono in monomial_basis(w, torus)[:120]:
            for g in gs:
                direct = g(FockVector(torus, {mono: Rat(1)}))
                for a in range(1, min(3, len(mono)) + 1):
                    assert commutator_expand(g, a, mono) == direct, (g.name, mono, a)


def test_expansion_validates_a(p2):
    mono = ((1, 0),)
    with pytest.raises(ValueError):
        commutator_expand(q(2, p2.unit()), 2, mono)   # a > number of factors
    with pytest.raises(ValueError):
        commutator_expand(q(2, p2.unit()), 0, mono)


def test_expansion_oracle_paths(p2, torus):
    from fockcalc import OracleMissing
    # mixed parity cannot be expanded
    odd_mixed = q(1, torus.unit() + torus.basis_element("x1"))
    with pytest.raises(OracleMissing):
        commutator_expand(odd_mixed, 1, ((1, 0),))
    # a custom oracle can refuse a bracket it does not know
    def refusing(selected):
        raise OracleMissing("no brackets here")
    with pytest.raises(OracleMissing):
        commutator_expand(q(2, p2.unit()), 1, ((1, 0),), bracket_oracle=refusing)


def test_expansion_places_and_signs_each_bracket(p2, torus):
    # every bracket is tagged by its own scalar, so each term of the
    # expansion is pinned, not only their sum
    from fockcalc import identity_operator

    def tagging(alg, tags):
        return lambda selected: identity_operator(alg) * tags[selected]

    x2, x3 = (1, torus.index_of["x2"]), (1, torus.index_of["x3"])
    oracle = tagging(torus, {(): 2, (x2,): 3, (x3,): 5, (x2, x3): 7})
    g = q(1, torus.basis_element("x1"))
    # the odd g passes the odd q_1(x2) on its way to q_1(x3)
    at_1 = {(x2, x3): 2, (x3,): 3, (x2,): -5}
    assert commutator_expand(g, 1, (x2, x3), oracle) == FockVector(torus, at_1)
    assert commutator_expand(g, 2, (x2, x3), oracle) == FockVector(
        torus, {**at_1, (): 7})

    one, h = (2, p2.index_of["1"]), (1, p2.index_of["h"])
    oracle = tagging(p2, {(): 2, (one,): 3, (h,): 5, (one, h): 7})
    g = q(2, p2.unit())
    at_1 = {(one, h): 2, (h,): 3, (one,): 5}
    assert commutator_expand(g, 1, (one, h), oracle) == FockVector(p2, at_1)
    assert commutator_expand(g, 2, (one, h), oracle) == FockVector(
        p2, {**at_1, (): 7})


def test_fh_bound_of_b_classes(p2):
    # B_i has a single monomial with sum(size-1) = i
    h = p2.basis_element("h")
    for n in (3, 4, 5):
        for i in range(1, n):
            v = b_class(i, h, n).value
            assert fh_support_bound(v, i)
            assert not fh_support_bound(v, i - 1)


# -- nested bracket identity ----------------------------------------------------


def test_nested_bracket_k0(p2):
    # k = 0: [G_0(gamma), q_1(alpha)] = q_1(gamma alpha)
    h = p2.basis_element("h")
    rep = nested_bracket_check(0, h, [p2.basis_element("h2")], p2, 4)
    assert rep.passed and rep.checked > 0


def test_nested_bracket_k1_matches_lq(p2):
    # k = 1 reduces to [L_1(gamma a1), q_1(a2)] = -q_2(gamma a1 a2)
    one, h = p2.unit(), p2.basis_element("h")
    rep = nested_bracket_check(1, h, [one, h], p2, 4)
    assert rep.passed


def test_nested_bracket_k2_p2(p2):
    one = p2.unit()
    rep = nested_bracket_check(2, one, [one, one, one], p2, 5)
    assert rep.passed


def test_nested_bracket_odd_classes(torus):
    x1, x2, x3 = (torus.basis_element(k) for k in ("x1", "x2", "x3"))
    one = torus.unit()
    assert nested_bracket_check(1, x1, [x2, one], torus, 3).passed
    assert nested_bracket_check(2, x1, [x2, x3, one], torus, 2).passed


def test_nested_bracket_validates_arity(p2):
    with pytest.raises(ValueError):
        nested_bracket_check(1, p2.unit(), [p2.unit()], p2, 3)


# -- filtration comparison --------------------------------------------------------


def test_filtration_degenerate_entry(p2):
    # i = 1: the difference vanishes identically
    h = p2.basis_element("h")
    for n in (2, 3, 4):
        b1 = b_class(1, h, n).value
        g1 = g_class(1, h, n).value
        assert (b1 - g1.scale(-2)).is_zero()
        rep = filtration_compare(1, h, n)
        assert rep.support_ok  # zero difference sits in every filtration level


def test_filtration_compare_p2(p2):
    h = p2.basis_element("h")
    rep = filtration_compare(2, h, 3)
    assert rep.leading_coeff == Rat(1, 6)
    assert rep.coeff_ok and rep.support_ok


def test_filtration_compare_torus_unit(torus):
    rep = filtration_compare(2, torus.unit(), 4)
    assert rep.support_ok
    assert rep.coeff_ok


def test_filtration_compare_validates(p2):
    h = p2.basis_element("h")
    with pytest.raises(IndexError):
        filtration_compare(3, h, 3)
    with pytest.raises(DomainError):
        filtration_compare(2, h.scale(2), 3)
