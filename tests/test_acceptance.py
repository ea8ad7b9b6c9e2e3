"""Acceptance suite: one test per criterion, exact (zero-tolerance) equality.

Every check is an exact rational identity; there are no numeric tolerances
to calibrate.  Sweeps over the 16-dimensional torus-like algebra run at
reduced truncation weights (3, or 2 where noted) purely for runtime: the
identities and class ranges checked are unchanged, and the CLI can rerun any
suite at wider truncation.  Each test prints one PASS line when it succeeds.
"""

import math

import pytest

from fockcalc import (
    FockVector,
    Rat,
    adjoint_matrix,
    b_analog,
    b_class,
    boundary_d,
    class_product,
    filtration_compare,
    fock,
    g_class,
    generation_closure,
    inner_product,
    commutator_expand,
    load_preset,
    monomial_basis,
    operator_matrix,
    partition_count,
    q,
    supercommutator,
    vacuum_unit,
    verify_relations,
    nested_bracket_check,
    virasoro,
)
from fockcalc.class_algebra import partitions_of
from fockcalc.fock import degree as mono_degree


def basis_vectors(alg, max_weight, min_weight=0):
    for n in range(min_weight, max_weight + 1):
        for mono in monomial_basis(n, alg):
            yield mono, FockVector(alg, {mono: Rat(1)})


def passline(k, text):
    print(f"\n[criterion {k}] PASS — {text}")


# -- 1. Heisenberg commutation relations ----------------------------------------


def test_criterion_1_heisenberg_relations():
    sweeps = (("p2", 8), ("p1xp1", 8), ("torus_like", 4))
    total = 0
    for name, weight in sweeps:
        rep = verify_relations("heisenberg", load_preset(name),
                               max_weight=weight, max_index=3)
        assert rep.passed, rep.render_text()
        total += rep.checked
    passline(1, f"[q_n, q_m] = n delta int(ab) Id; |n|,|m|<=3, all basis "
                f"pairs, {total} checks (p2/p1xp1 at weight 8, torus at 4)")


# -- 2. Virasoro relations and the central term -----------------------------------


def test_criterion_2_virasoro_relations():
    total = 0
    for name in ("p2", "p1xp1"):
        alg = load_preset(name)
        for suite in ("Lq", "LL"):
            rep = verify_relations(suite, alg, max_weight=5, max_index=2)
            assert rep.passed, rep.render_text()
            total += rep.checked
    torus = load_preset("torus_like")
    rep = verify_relations("Lq", torus, max_weight=2, max_index=2,
                           classes=torus.even_basis_elements())
    assert rep.passed, rep.render_text()
    total += rep.checked

    # central term at (n, m) = (2, -2), alpha = beta = 1: -(1/2) chi Id
    for name, central, weight in (("p2", Rat(-3, 2), 5), ("torus_like", Rat(0), 3)):
        alg = load_preset(name)
        one = alg.unit()
        bracket = supercommutator(virasoro(2, one), virasoro(-2, one))
        l0_scaled = virasoro(0, one) * 4
        for mono, v in basis_vectors(alg, weight):
            diff = bracket(v) - l0_scaled(v) - v.scale(central)
            assert diff.is_zero(), (name, mono)
            total += 1
    passline(2, f"[L_n, q_m] and [L_n, L_m] with central term -chi/2 at "
                f"(2,-2): {total} checks; -3/2 on p2, 0 on torus_like")


# -- 3. derivative formula and self-adjointness of d --------------------------------


def test_criterion_3_derivative_formula():
    total = 0
    for name, weight in (("p2", 5), ("p1xp1", 5), ("torus_like", 3)):
        rep = verify_relations("qprime", load_preset(name),
                               max_weight=weight, max_index=3)
        assert rep.passed, rep.render_text()
        total += rep.checked
    passline(3, f"q_n' = n L_n + n(|n|-1)/2 q_n(K .) for n in -3..3 "
                f"nonzero: {total} checks")


def test_criterion_3_boundary_self_adjoint():
    # (d u, v) = (u, d v) on every complementary pair of bigraded pieces,
    # which with nondegeneracy is exactly self-adjointness
    total = 0
    for name, top in (("p2", 5), ("p1xp1", 5), ("torus_like", 2)):
        alg = load_preset(name)
        d = boundary_d(alg)
        for n in range(1, top + 1):
            by_degree = {}
            for mono in monomial_basis(n, alg):
                by_degree.setdefault(mono_degree(mono, alg), []).append(mono)
            for i, monos in by_degree.items():
                partners = by_degree.get(4 * n - i - 2, [])
                for a in monos:
                    u = FockVector(alg, {a: Rat(1)})
                    du = d(u)
                    for b in partners:
                        v = FockVector(alg, {b: Rat(1)})
                        assert inner_product(du, v) == inner_product(u, d(v))
                        total += 1
    # and as matrices on sample pieces (p2)
    p2 = load_preset("p2")
    d = boundary_d(p2)
    for piece in ((2, 2), (3, 4), (4, 4), (5, 6)):
        mat, src, tgt = adjoint_matrix(d, piece)
        assert mat == operator_matrix(d, src, tgt), piece
    passline(3, f"d self-adjoint: {total} pairing checks on all pieces "
                f"(p2/p1xp1 to weight 5, torus to 2) + matrix equality on p2")


# -- 4. the generic expansion lemma ---------------------------------------------------


def _lemma_sweep(alg, max_weight, colors):
    gs = [q(2, alg.basis_element(c)) for c in colors]
    gs += [virasoro(1, alg.basis_element(c)) for c in colors]
    gs += [virasoro(0, alg.unit()), boundary_d(alg)]
    count = 0
    for w in range(1, max_weight + 1):
        for mono in monomial_basis(w, alg):
            for g in gs:
                direct = g(FockVector(alg, {mono: Rat(1)}))
                for a in range(1, min(3, len(mono)) + 1):
                    assert commutator_expand(g, a, mono) == direct, \
                        (alg.name, g.name, mono, a)
                    count += 1
    return count


def test_criterion_4_expansion_lemma():
    p2 = load_preset("p2")
    total = _lemma_sweep(p2, 5, range(p2.dim))
    torus = load_preset("torus_like")
    odd_mix = [torus.index_of[k] for k in ("1", "x1", "x2", "x1x2", "x1x2x3x4")]
    total += _lemma_sweep(torus, 3, odd_mix)
    passline(4, f"expansion equals direct application for q_2, L_1, L_0(1), d; "
                f"a<=3: {total} expansions (p2 weight 5, torus weight 3)")


# -- 5. generator identities -------------------------------------------------------


def test_criterion_5_generator_identities():
    total = 0
    for name in ("p2", "p1xp1", "torus_like", "point"):
        alg = load_preset(name)
        one = alg.unit()
        for n in range(1, 7):
            assert b_class(0, one, n).value == vacuum_unit(alg, n).scale(n)
            total += 1
        for c in range(alg.dim):
            gamma = alg.basis_element(c)
            for n in range(1, 7):
                assert g_class(0, gamma, n).value == b_class(0, gamma, n).value
                total += 1
                if n >= 2:
                    assert (b_class(1, gamma, n).value
                            == g_class(1, gamma, n).value.scale(-2)), \
                        (name, c, n)
                    total += 1
    passline(5, f"B_0(1,n) = n 1_[n], G_0 = B_0, B_1 = -2 G_1 for n<=6, "
                f"all basis classes, all presets: {total} identities")


# -- 6. leading-term law --------------------------------------------------------------


def test_criterion_6_leading_term_law():
    checked = 0
    proxies = 0
    for name in ("p2", "p1xp1", "torus_like", "point"):
        alg = load_preset(name)
        for c in range(alg.dim):
            gamma = alg.basis_element(c)
            for n in range(3, 6):
                for i in range(2, n):
                    rep = filtration_compare(i, gamma, n)
                    expected = Rat((-1) ** i,
                                   math.factorial(i + 1) * math.factorial(n - i - 1))
                    assert rep.expected_coeff == expected
                    assert rep.coeff_ok, (name, c, i, n, rep.leading_coeff)
                    checked += 1
                    # the filtration proxy, reported separately, expected true
                    assert rep.support_ok, (name, c, i, n)
                    proxies += 1
    passline(6, f"coefficient of q_(i+1)(g) q_1(1)^(n-i-1) in G_i equals "
                f"(-1)^i/((i+1)!(n-i-1)!) for 2<=i<n<=5: {checked} cases; "
                f"filtration proxy held in all {proxies}")


# -- 7. nested-bracket identity, all indices one ---------------------------------------


def test_criterion_7_nested_bracket_all_ones():
    total = 0
    for name in ("p2", "p1xp1", "point"):
        alg = load_preset(name)
        one = alg.unit()
        for k in range(4):
            tuples = [(one, [one] * (k + 1))]
            for c in range(alg.dim):
                tuples.append((alg.basis_element(c), [one] * (k + 1)))
            if alg.dim >= 2:
                tuples.append((alg.basis_element(1),
                               [alg.basis_element(1)] + [one] * k))
            for gamma, alphas in tuples:
                rep = nested_bracket_check(k, gamma, alphas, alg, 5)
                assert rep.passed, rep.render_text()
                total += rep.checked
    torus = load_preset("torus_like")
    tone = torus.unit()
    x1, x2, x3, x4 = (torus.basis_element(f"x{j}") for j in (1, 2, 3, 4))
    x12 = torus.basis_element("x1x2")
    cases = [
        (0, tone, [x1], 3), (0, x1, [x2], 3),
        (1, tone, [tone, tone], 3), (1, x1, [x2, tone], 3),
        (1, x12, [x3, x4], 3),
        (2, tone, [tone, tone, tone], 2), (2, x1, [x2, x3, tone], 2),
        (3, tone, [tone] * 4, 2), (3, x1, [x2, x3, x4, tone], 2),
    ]
    for k, gamma, alphas, weight in cases:
        rep = nested_bracket_check(k, gamma, alphas, torus, weight)
        assert rep.passed, rep.render_text()
        total += rep.checked
    passline(7, f"(k+1)-fold bracket equals (-1)^k q_(k+1)(product) for k<=3, "
                f"all presets: {total} checks")


# -- 8. generation theorem shadow -------------------------------------------------------


def test_criterion_8_generation_shadow():
    # S_3 sanity product, brute-verifiable by hand
    prod = class_product((2, 1), (2, 1), 3)
    assert prod.coeffs == {(1, 1, 1): 3, (3,): 3}

    expected_dims = {3: 3, 4: 5, 8: 22}
    for n in range(2, 9):
        gens = [b_analog(i, n) for i in range(n)]
        rep = generation_closure(gens, n)
        assert rep.generated, rep.render_text()
        assert rep.dimension == partition_count(n)
        if n in expected_dims:
            assert rep.dimension == expected_dims[n]
    passline(8, "class sums C_(i+1,1^(n-i-1)) generate the center of Q[S_n] "
                "for 2<=n<=8; dims 3, 5, 22 at n = 3, 4, 8; "
                "C(2,1)^2 = 3C(1^3) + 3C(3)")
