"""Heisenberg/Virasoro operators, the boundary derivation, adjoints, suites."""

import pytest

from fockcalc import (
    FockVector,
    MixedDegree,
    Rat,
    adjoint_matrix,
    boundary_d,
    canonicalize,
    derivative,
    identity_operator,
    monomial_basis,
    operator_matrix,
    q,
    supercommutator,
    verify_relations,
    virasoro,
)
from fockcalc.fock import degree as mono_degree
from fockcalc.fock import weight as mono_weight


def basis_vectors(alg, max_weight):
    out = []
    for n in range(max_weight + 1):
        for mono in monomial_basis(n, alg):
            out.append(FockVector(alg, {mono: Rat(1)}))
    return out


def op_equal_on(f, g, vectors):
    return all((f(v) - g(v)).is_zero() for v in vectors)


# -- q operators -----------------------------------------------------------------


def test_q_examples(p2):
    one, h = p2.unit(), p2.basis_element("h")
    vac = FockVector.vacuum(p2)
    assert q(-1, h)(q(1, h)(vac)) == vac.scale(-1)
    assert q(1, h)(vac) == canonicalize(p2, [(1, h)])
    v = canonicalize(p2, [(1, one), (1, one)])
    assert q(-2, one)(v).is_zero()
    assert q(0, h)(v).is_zero()


def test_q_bidegree_bookkeeping(p2, torus):
    for alg in (p2, torus):
        for n in (-2, -1, 1, 3):
            for c in range(alg.dim):
                op = q(n, alg.basis_element(c))
                shift, deg = op.bidegree()
                assert (shift, deg) == (n, 2 * (n - 1) + alg.degrees[c])
                for v in basis_vectors(alg, 2):
                    img = op(v)
                    if img.is_zero():
                        continue
                    mono = next(iter(v.terms))
                    for m in img.terms:
                        assert mono_weight(m) == mono_weight(mono) + shift
                        assert mono_degree(m, alg) == mono_degree(mono, alg) + deg


def test_q_mixed_degree(p2):
    mixed = p2.unit() + p2.basis_element("h")
    op = q(1, mixed)
    with pytest.raises(MixedDegree):
        op.bidegree()
    # apply is still valid, by linearity
    assert op(FockVector.vacuum(p2)) == canonicalize(p2, [(1, mixed)])


# -- supercommutator ---------------------------------------------------------------


def test_supercommutator_examples(p2, torus):
    one, h = p2.unit(), p2.basis_element("h")
    vecs = basis_vectors(p2, 4)
    zero_br = supercommutator(q(1, one), q(1, one))
    assert all(zero_br(v).is_zero() for v in vecs)
    br = supercommutator(q(-1, h), q(1, h))
    assert op_equal_on(br, identity_operator(p2) * (-1), vecs)
    x1, x2 = torus.basis_element("x1"), torus.basis_element("x2")
    anti = supercommutator(q(1, x1), q(1, x2))
    assert all(anti(v).is_zero() for v in basis_vectors(torus, 3))


def test_supercommutator_needs_parity(p2, torus):
    # mixed degree with uniform parity is fine
    even_mixed = q(1, p2.unit() + p2.basis_element("h"))
    supercommutator(even_mixed, q(1, p2.unit()))
    # genuinely mixed parity is not
    odd_mixed = q(1, torus.unit() + torus.basis_element("x1"))
    with pytest.raises(MixedDegree):
        supercommutator(odd_mixed, q(1, torus.unit()))


# -- Virasoro ----------------------------------------------------------------------


def test_virasoro_examples(p2):
    one, h = p2.unit(), p2.basis_element("h")
    vac = FockVector.vacuum(p2)
    assert virasoro(1, h)(vac).is_zero()
    lhs = supercommutator(virasoro(1, h), q(1, one))
    rhs = q(2, h) * (-1)
    assert op_equal_on(lhs, rhs, basis_vectors(p2, 4))
    assert virasoro(0, one)(q(1, h)(vac)) == q(1, h)(vac).scale(-1)


def test_virasoro_window_annihilates_outside(p2):
    # terms with m outside [-w, n+w] kill a weight-w vector: spot check that
    # a single far-out term q_m q_{n-m} applied directly vanishes
    one = p2.unit()
    v = canonicalize(p2, [(2, one), (1, one)])  # weight 3
    n = 2
    for m in (-5, -4, 8, 9):
        pair_sum = FockVector.zero(p2)
        for x, y in __import__("fockcalc").diagonal_pushforward(one):
            pair_sum = pair_sum + q(m, x)(q(n - m, y)(v))
        assert pair_sum.is_zero(), m


def test_virasoro_matches_the_quadratic_definition(p2, torus):
    # L_n(e) = 1/2 sum_m q_m q_{n-m} over the diagonal of e for n != 0, and
    # sum_{m>0} q_m q_{-m} at n = 0, summed in every order of the window
    from fockcalc import diagonal_pushforward
    for alg, weight, colors in ((p2, 3, range(3)), (torus, 2, (1, 6, 11))):
        vectors = basis_vectors(alg, weight)
        for c in colors:
            e = alg.basis_element(c)
            pairs = diagonal_pushforward(e)
            for n in range(-3, 4):
                if n == 0:
                    window, scale = range(1, weight + 1), 1
                else:
                    window, scale = range(-weight, n + weight + 1), Rat(1, 2)
                for v in vectors:
                    direct = FockVector.zero(alg)
                    for m in window:
                        for x, y in pairs:
                            direct = direct + q(m, x)(q(n - m, y)(v))
                    assert virasoro(n, e)(v) == direct.scale(scale), (n, c, v)


# -- boundary operator --------------------------------------------------------------


def test_boundary_examples(p2):
    one, h = p2.unit(), p2.basis_element("h")
    d = boundary_d(p2)
    assert d(canonicalize(p2, [(1, h)])).is_zero()
    got = d(canonicalize(p2, [(2, one)]))
    expect = (canonicalize(p2, [(1, one), (1, p2.basis_element("h2"))]).scale(2)
              + canonicalize(p2, [(1, h), (1, h)])
              - canonicalize(p2, [(2, h)]).scale(3))
    assert got == expect


def test_boundary_on_unit_powers(p2):
    # d(q_1(1)^n |0>) = -C(n,2) q_2(1) q_1(1)^(n-2) |0>, by unrolling the
    # recursion with [L_1(1), q_1(1)] = -q_2(1) and L_1(1)|0> = 0
    one = p2.unit()
    d = boundary_d(p2)
    for n in range(6):
        v = canonicalize(p2, [(1, one)] * n)
        expect = FockVector.zero(p2)
        if n >= 2:
            expect = canonicalize(p2, [(2, one)] + [(1, one)] * (n - 2))
            expect = expect.scale(Rat(-n * (n - 1), 2))
        assert d(v) == expect, n


def test_boundary_recursion_order_independent(p2, torus):
    # anchoring the recursion at any factor position j — pull q_{i_j}(a_j) to
    # the front with its Koszul sign, then apply one recursion step — must
    # reproduce d of the monomial
    from fockcalc import mul
    for alg, maxw in ((p2, 5), (torus, 3)):
        d = boundary_d(alg)
        for n in range(2, maxw + 1):
            for mono in monomial_basis(n, alg):
                direct = d(FockVector(alg, {mono: Rat(1)}))
                for j, (size, color) in enumerate(mono):
                    sign = 1
                    if alg.parities[color]:
                        crossed = sum(1 for _, c2 in mono[:j] if alg.parities[c2])
                        sign = -1 if crossed & 1 else 1
                    rest = FockVector(alg, {mono[:j] + mono[j + 1:]: Rat(1)})
                    head = virasoro(size, alg.basis_element(color))(rest) * size
                    kmul = mul(alg.canonical_class, alg.basis_element(color))
                    head = head + (q(size, kmul) * Rat(size * (size - 1), 2))(rest)
                    anchored = (head + q(size, alg.basis_element(color))(d(rest)))
                    assert anchored.scale(sign) == direct, (mono, j)


def test_derivative_examples(p2):
    one, h = p2.unit(), p2.basis_element("h")
    vecs = basis_vectors(p2, 4)
    assert op_equal_on(derivative(q(1, h), 1), virasoro(1, h), vecs)
    for n in (2, 3):
        lhs = derivative(q(n, h), 1)
        k_h = __import__("fockcalc").mul(p2.canonical_class, h)
        rhs = virasoro(n, h) * n + q(n, k_h) * Rat(n * (n - 1), 2)
        assert op_equal_on(lhs, rhs, vecs)
    dd = supercommutator(boundary_d(p2), boundary_d(p2))
    assert all(dd(v).is_zero() for v in vecs)


# -- adjoints ---------------------------------------------------------------------


def test_adjoint_of_q_is_signed_annihilation(p2):
    h = p2.basis_element("h")
    for n in (1, 2, -1, -2):
        for piece in (((2, 2)), ((3, 4))):
            w, i = piece
            mat, src, tgt = adjoint_matrix(q(n, h), (w, i))
            direct = q(-n, h) * ((-1) ** n)
            if not tgt:
                for v in src:
                    img = direct(FockVector(p2, {v: Rat(1)}))
                    assert img.is_zero()
                continue
            expect = operator_matrix(direct, src, tgt)
            assert mat == expect, (n, piece)


def test_boundary_self_adjoint_matrix(p2):
    d = boundary_d(p2)
    for (w, i) in ((2, 2), (3, 2), (3, 4), (4, 4)):
        mat, src, tgt = adjoint_matrix(d, (w, i))
        assert mat == operator_matrix(d, src, tgt), (w, i)


def test_adjoint_antihomomorphism(p2):
    # (fg)^adj = (-1)^(m m1) g^adj f^adj on a sample piece
    f, g = q(1, p2.basis_element("h")), q(2, p2.unit())
    fg = f.compose(g)
    piece = (4, 6)
    mat_fg, src, tgt = adjoint_matrix(fg, piece)
    mat_f, src_f, mid = adjoint_matrix(f, piece)
    mat_g, src_g, tgt_g = adjoint_matrix(g, (piece[0] - 1, piece[1] - 2))
    assert src_g == mid and tgt_g == tgt
    # compose columns: g_adj applied to f_adj columns
    composed = []
    for col in mat_f:
        out = [Rat(0)] * len(tgt)
        for k, c in enumerate(col):
            if c:
                for r, cc in enumerate(mat_g[k]):
                    out[r] += c * cc
        composed.append(out)
    sign = 1  # both operators have even degree here
    assert composed == [[sign * x for x in col] for col in mat_fg]


def test_adjoint_needs_surface(point):
    from fockcalc import SingularGram
    with pytest.raises(SingularGram):
        adjoint_matrix(q(1, point.unit()), (2, 0))


def test_operator_bidegree_bookkeeping(p2, torus):
    # built operators respect their declared bidegree on every basis input
    for alg, maxw in ((p2, 4), (torus, 2)):
        one = alg.unit()
        ops = [virasoro(2, one), virasoro(-1, one), boundary_d(alg),
               derivative(q(2, one), 1)]
        if alg.dim > 4:
            ops.append(virasoro(1, alg.basis_element("x1")))
        for op in ops:
            shift, deg = op.bidegree()
            for v in basis_vectors(alg, maxw):
                img = op(v)
                if img.is_zero():
                    continue
                mono = next(iter(v.terms))
                for m in img.terms:
                    assert mono_weight(m) == mono_weight(mono) + shift
                    assert mono_degree(m, alg) == mono_degree(mono, alg) + deg


def test_bracket_adjoint_rule(p2):
    # [f, g]^adj = -[f^adj, g^adj], checked as matrices via evaluation
    h = p2.basis_element("h")
    f, g = q(1, h), q(-2, h)
    br = supercommutator(f, g)
    piece = (3, 4)
    mat_br, src, tgt = adjoint_matrix(br, piece)
    fa = q(-1, h) * (-1)
    ga = q(2, h)
    rhs = supercommutator(fa, ga) * (-1)
    assert mat_br == operator_matrix(rhs, src, tgt)


# -- relation suites ----------------------------------------------------------------


@pytest.mark.parametrize("suite", ["heisenberg", "Lq", "LL", "qprime"])
def test_suites_pass_on_p2(p2, suite):
    rep = verify_relations(suite, p2, max_weight=3, max_index=2)
    assert rep.passed, rep.render_text()
    assert rep.checked > 0


def test_ll_central_term_example(p2):
    one = p2.unit()
    br = supercommutator(virasoro(2, one), virasoro(-2, one))
    rhs_main = virasoro(0, one) * 4
    for v in basis_vectors(p2, 4):
        diff = br(v) - rhs_main(v) - v.scale(Rat(-3, 2))
        assert diff.is_zero()


def test_ll_central_term_vanishes_on_torus(torus):
    # chi = 0, so [L_n(1), L_-n(1)] = 2n L_0(1) with no scalar part, any n
    one = torus.unit()
    for n in (1, 2, 3):
        br = supercommutator(virasoro(n, one), virasoro(-n, one))
        rhs = virasoro(0, one) * (2 * n)
        for v in basis_vectors(torus, 2 if n == 2 else 1):
            assert (br(v) - rhs(v)).is_zero(), n


def test_ll_exploratory_odd_classes(torus):
    # central convention for odd classes: exercised, reported, not gated
    rep = verify_relations("LL", torus, max_weight=1, max_index=1,
                           classes=[torus.basis_element("x1"),
                                    torus.basis_element("x2x3x4")])
    print("exploratory odd-class LL:", "pass" if rep.passed else
          f"{rep.discrepancy_count} discrepancies")


def test_report_rendering(p2):
    rep = verify_relations("heisenberg", p2, max_weight=2, max_index=1)
    text = rep.render_text()
    assert "suite: heisenberg" in text and "result: PASS" in text
    record = rep.to_record()
    assert record["passed"] is True and record["checked"] == rep.checked


def test_report_discrepancy_path():
    # a correct engine never produces discrepancies from valid algebras, so
    # exercise the record/rendering path directly
    from fockcalc.operators import Report
    rep = Report("heisenberg", "fake", {"n": 1}, 2)
    for k in range(30):
        rep.record({"n": k}, "q_1(1) |0>", "1 * |0>")
    assert not rep.passed
    assert rep.discrepancy_count == 30
    assert len(rep.discrepancies) == rep.max_kept  # capped, count exact
    assert "result: FAIL" in rep.render_text()
    assert rep.to_record()["passed"] is False


def test_check_driver_reports_a_false_identity(p2):
    # q_1(h) = 2 q_1(h) fails on every monomial; Id + q_1(h) = q_1(h) + 1 Id
    # holds, and is counted without a per-instance entry
    from fockcalc.operators import Instance, Report, _check_instances
    h = p2.basis_element("h")
    monos = [m for w in range(3) for m in monomial_basis(w, p2)]
    q1h = q(1, h).fn
    wrong = Instance("wrong", {"n": 1}, q1h, ((2, q1h),), 0, monos)
    right = Instance(None, {}, (identity_operator(p2) + q(1, h)).fn,
                     ((1, q1h),), 1, monos)
    records = []
    for jobs in (1, 2):
        rep = _check_instances(Report("t", "p2", {}, 2), p2, [wrong, right], jobs)
        assert rep.checked == 2 * len(monos)
        assert rep.instance_counts == {"wrong": len(monos)}
        assert rep.discrepancy_count == len(monos)
        first = rep.discrepancies[0]
        assert (first.params, first.monomial, first.difference) == (
            {"n": 1}, "|0>", "-1 * q_1(h) |0>")
        records.append(rep.to_record())
    assert records[0] == records[1]


def test_suite_jobs_deterministic(p2):
    a = verify_relations("Lq", p2, max_weight=2, max_index=1, jobs=1)
    b = verify_relations("Lq", p2, max_weight=2, max_index=1, jobs=4)
    assert a.to_record() == b.to_record()
