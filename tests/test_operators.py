"""Heisenberg/Virasoro operators, the boundary derivation, adjoints, suites."""

import itertools

import pytest

from fockcalc import (
    FockVector,
    MixedDegree,
    Rat,
    TruncationExceeded,
    adjoint_matrix,
    boundary_d,
    canonicalize,
    derivative,
    identity_operator,
    monomial_basis,
    nested_bracket_check,
    operator_matrix,
    parse_element,
    q,
    set_max_weight,
    supercommutator,
    verify_relations,
    virasoro,
)
from fockcalc._linalg import axpy
from fockcalc.fock import degree as mono_degree
from fockcalc.fock import weight as mono_weight


def _times_d(algebra, image):
    """`image` times the memo tables' D (algebra.table_scale), in ints: the
    form in which the L, d and q1k tables hold their images."""
    from fockcalc._rat import whole
    return {m: whole(algebra.table_scale * c) for m, c in image.items()}


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


def test_operators_reject_another_algebra(p2, p1xp1):
    # applying or composing across algebras would index one algebra's
    # colors with another's; both raise like + and supercommutator do
    fg = p1xp1.basis_element("fg")
    q_p2 = q(1, p2.basis_element("h"))
    with pytest.raises(ValueError, match="different algebras"):
        q_p2(canonicalize(p1xp1, [(1, fg)]))
    with pytest.raises(ValueError, match="different algebras"):
        q_p2.compose(q(1, fg))
    with pytest.raises(ValueError, match="different algebras"):
        q_p2 + q(1, fg)


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


@pytest.mark.parametrize("name, scale, max_weight", (
    ("p2", 1, 3), ("p1xp1", 1, 3), ("torus_like", 1, 3), ("point", 1, 3),
    ("p2", Rat(2, 3), 3), ("torus_like", Rat(-1, 2), 2)))
def test_virasoro_kernel_matches_the_triples(name, scale, max_weight):
    # the contracted kernel against the triple-by-triple loop it replaced, on
    # every colour, n in -3..3 and monomial, as the table holds it: D times
    # the loop's image; the scaled torus_like stops at weight 2, since its
    # weight 3 alone would take about 7 s
    from closure_suites import fresh_algebra, triple_virasoro_mono
    from fockcalc.operators import _virasoro_mono
    alg = fresh_algebra(name, scale)
    kernel = _virasoro_mono.__wrapped__
    for mono in (m for w in range(max_weight + 1) for m in monomial_basis(w, alg)):
        for n in range(-3, 4):
            for c in range(alg.dim):
                assert (kernel(alg, n, c, mono)
                        == _times_d(alg, triple_virasoro_mono(alg, n, c, mono))), (
                    n, c, mono)


def test_contracted_kernel_reads_the_kunneth_triples(monkeypatch):
    # one Kunneth coefficient of the unit doubled before the first L call:
    # only a pair of creations reads the triples, so every L_n with n <= 1,
    # which has no such pair, keeps its image, and an L_n with n >= 2 changes
    # by what triple_virasoro_mono changes with its annihilations switched off
    import closure_suites
    from closure_suites import _q_kernel, fresh_algebra, triple_virasoro_mono
    from fockcalc.operators import _virasoro_mono
    clean, alg = fresh_algebra("p2"), fresh_algebra("p2")
    (u, v, t), *rest = alg.kunneth_triples(0)
    alg._diagonal_cache[0] = ((u, v, 2 * t), *rest)
    monkeypatch.setattr(closure_suites, "_q_kernel", lambda n: _q_kernel(n) if n > 0
                        else (lambda *args: None, -n))
    changed = 0
    for mono in (m for w in range(4) for m in monomial_basis(w, alg)):
        for n in range(-3, 4):
            got, was = _virasoro_mono(alg, n, 0, mono), _virasoro_mono(clean, n, 0, mono)
            creations = _times_d(alg, triple_virasoro_mono(alg, n, 0, mono))
            clean_creations = _times_d(clean, triple_virasoro_mono(clean, n, 0, mono))
            assert n >= 2 or creations == clean_creations == {}, (n, mono)
            want = axpy(axpy(dict(was), creations), clean_creations, -1)
            assert got == want, (n, mono)
            changed += got != was
    assert changed


@pytest.mark.parametrize("name, scale", (
    ("p2", 1), ("p1xp1", 1), ("torus_like", 1), ("point", 1),
    ("p2", Rat(2, 3)), ("torus_like", Rat(-1, 2)), ("p1xp1", Rat(5, 7))))
def test_memo_tables_hold_ints_and_public_images_are_exact(name, scale):
    # the calculus sweeps fill the L, d and q1k tables with D L_n, D d and
    # D^k q_1^(k) in ints, rational pairings included (D is 490 on p1xp1 at
    # 5/7); the public operators divide once, so q_1^(k) matches the k-fold
    # derivative of q_1, which reads no q1k table, and L_n the triple loop,
    # with whole coefficients as ints.  Colours are sampled past dim 4
    from closure_suites import fresh_algebra, triple_virasoro_mono
    from fockcalc.generators import q1_kth_bracket
    alg = fresh_algebra(name, scale)
    for suite in CALCULUS_SUITES:
        index = {} if suite == "nested_bracket" else {"max_index": 1}
        assert verify_relations(suite, alg, max_weight=2, **index).passed, suite
    for kind in ("L", "d", "q1k"):
        assert alg._op_caches[kind], kind
        assert all(c.__class__ is int for image in alg._op_caches[kind].values()
                   for c in image.values()), kind
    colors = range(alg.dim) if alg.dim <= 4 else (0, 1, 5, alg.dim - 1)
    classes = [alg.basis_element(c) for c in colors]
    classes.append(sum(classes[1:], alg.basis_element(colors[0]).scale(Rat(1, 3))))
    vectors = [FockVector(alg, {m: 1})
               for w in range(3) for m in monomial_basis(w, alg)]
    whole_seen = 0
    for alpha in classes:
        # a class of mixed parity has no derivative (supercommutator)
        for k in range(1, 4) if q(1, alpha).parity is not None else ():
            want, got = derivative(q(1, alpha), k), q1_kth_bracket(k, alpha)
            assert all(got(v) == want(v) for v in vectors), (k, alpha)
        for n, v in itertools.product(range(-2, 3), vectors):
            (mono, _), = v.terms.items()
            want = {}
            for c, x in alpha.coeffs.items():
                for m, y in triple_virasoro_mono(alg, n, c, mono).items():
                    want[m] = want.get(m, 0) + x * y
            got = virasoro(n, alpha)(v).terms
            assert got == {m: y for m, y in want.items() if y}, (n, alpha, mono)
            for y in got.values():
                whole_seen += y.denominator == 1
                assert y.__class__ is int or y.denominator != 1, (n, alpha, mono)
    assert whole_seen


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
            direct = q(-n, h) * (-1) ** abs(n)
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


@pytest.mark.parametrize("suite", ["expansion", "nested_bracket"])
def test_index_free_suites_reject_index_options(torus, suite):
    with pytest.raises(ValueError, match="max_index or classes"):
        verify_relations(suite, torus, max_weight=1, max_index=7)
    with pytest.raises(ValueError, match="max_index or classes"):
        verify_relations(suite, torus, max_weight=1,
                         classes=[torus.basis_element("x1")])


def test_suites_reject_classes_of_another_algebra(p2, p1xp1, torus):
    # a class read by basis index on the sweep's algebra would pass or fail
    # for nothing (torus_like on p2), or index past its basis (p1xp1); f on
    # p1xp1 has the coefficients of h on p2, and once shared its ops
    x1, f = torus.basis_element("x1"), p1xp1.basis_element("f")
    for classes in ([x1], [p1xp1.basis_element("fg")], [p2.basis_element("h"), f]):
        for suite in ("heisenberg", "Lq", "LL", "qprime"):
            with pytest.raises(ValueError, match="different algebras"):
                verify_relations(suite, p2, max_weight=2, max_index=1, classes=classes)
    with pytest.raises(ValueError, match="different algebras"):
        nested_bracket_check(1, x1, [torus.unit()] * 2, p2, 2)


def test_sweeps_that_check_nothing_raise(p2):
    with pytest.raises(ValueError, match="checked nothing"):
        verify_relations("heisenberg", p2, max_weight=2, classes=[])
    with pytest.raises(ValueError, match="checked nothing"):
        verify_relations("qprime", p2, max_weight=-1)
    with pytest.raises(ValueError, match="checked nothing"):
        nested_bracket_check(0, p2.unit(), [p2.unit()], p2, -1)


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


def test_report_discrepancy_path(p2, monkeypatch):
    # a correct engine never produces discrepancies from valid algebras, so
    # exercise the record/rendering path directly; only the kept
    # discrepancies are rendered
    from fockcalc import fock
    from fockcalc.operators import Report
    rendered = []
    render_vector = fock.render_vector
    monkeypatch.setattr(fock, "render_vector",
                        lambda v: rendered.append(v) or render_vector(v))
    rep = Report("heisenberg", "p2", {"n": 1}, 2)
    for k in range(30):
        rep.record({"n": k}, p2, ((1, 0),), {(): 1})
    assert not rep.passed
    assert rep.discrepancy_count == 30
    assert len(rep.discrepancies) == rep.max_kept  # capped, count exact
    assert len(rendered) == rep.max_kept
    assert (rep.discrepancies[0].monomial, rep.discrepancies[0].difference) \
        == ("q_1(1) |0>", "1 * |0>")
    assert "result: FAIL" in rep.render_text()
    assert rep.to_record()["passed"] is False


def test_check_driver_reports_a_false_identity(p2):
    # q_1(h) = 2 q_1(h) fails on every monomial; Id + q_1(h) = q_1(h) + 1 Id
    # holds, and is counted without a per-instance entry
    from closure_suites import Instance
    from fockcalc.operators import Report, _check_instances, _Rows
    h = p2.basis_element("h")
    monos = [m for w in range(3) for m in monomial_basis(w, p2)]
    q1h = q(1, h).fn
    wrong = Instance("wrong", {"n": 1}, q1h, ((2, q1h),), 0, monos)
    right = Instance(None, {}, (identity_operator(p2) + q(1, h)).fn,
                     ((1, q1h),), 1, monos)
    rep = _check_instances(Report("t", "p2", {}, 2), p2, [wrong, right])
    assert rep.checked == 2 * len(monos)
    assert rep.instance_counts == {"wrong": len(monos)}
    assert rep.discrepancy_count == len(monos)
    first = rep.discrepancies[0]
    assert (first.params, first.monomial, first.difference) == (
        {"n": 1}, "|0>", "-1 * q_1(h) |0>")
    # q_n(h) = 2 q_n(h) as a _RowInstance restricted to every other sweep
    # monomial counts those keys alone and fails on those alone: on the full
    # scan (q_1(h) has a row on every key) and on the sparse one (q_-1(h)
    # has a row on some)
    rows = _Rows(p2, 2)
    keys = list(range(0, len(rows.monomials), 2))
    failed = {}
    for n in (1, -1):
        op = rows.op(q, n, h)
        half = rows.check("half", {"n": n}, ((((op,), 1),), None, None),
                          ((2, op),), 0, keys)
        want = [(v, {m: -c for m, c in q(n, h).fn({v: 1}).items()})
                for v in (rows.monomials[k] for k in keys)]
        want = [(v, diff) for v, diff in want if diff]
        assert list(half.residuals()) == want, n
        rep = _check_instances(Report("t", "p2", {}, 2), p2, [half])
        assert rep.checked == len(keys) and rep.instance_counts == {"half": len(keys)}
        failed[n] = rep.discrepancy_count
        assert failed[n] == len(want)
    assert failed[1] == len(keys) > failed[-1] > 0


def test_verify_relations_runs_on_one_thread(p2):
    # jobs stays a keyword for callers that pass jobs=1; nothing else runs
    assert verify_relations("Lq", p2, max_weight=1, max_index=1, jobs=1).passed
    with pytest.raises(ValueError, match="jobs"):
        verify_relations("Lq", p2, max_weight=2, max_index=1, jobs=2)


# -- the row-composing suites against the closure path ---------------------------


def _flip_annihilation(monkeypatch, algebras):
    # every annihilation: the Koszul walk every q_{-n} runs (annihilate_into)
    # and the product rows and their pairings that L_n reads in place of an
    # annihilation acting first (halved_diagonal)
    from fockcalc import fock
    from fockcalc.surface import SurfaceAlgebra
    walk = fock.annihilate_into

    def flipped(acc, terms, size, weights, coeff, parities, ids):
        walk(acc, terms, size, weights, -coeff, parities, ids)

    halved, negated_views = SurfaceAlgebra.halved_diagonal, {}

    def negated(alg, i):
        if (alg, i) not in negated_views:
            triples, rows, twice = halved(alg, i)
            negated_views[alg, i] = (
                triples, [tuple((u, -w) for u, w in row) for row in rows],
                [[-w for w in weights] for weights in twice])
        return negated_views[alg, i]

    monkeypatch.setattr(fock, "annihilate_into", flipped)
    monkeypatch.setattr(SurfaceAlgebra, "halved_diagonal", negated)


def _drop_odd_passage(monkeypatch, algebras):
    # the Koszul walk of every annihilation (annihilate_into) without the sign
    # an odd part picks up for each odd part before it: the walk run as if
    # every class were even
    from fockcalc import fock
    walk = fock.annihilate_into

    def unsigned(acc, terms, size, weights, coeff, parities, ids):
        walk(acc, terms, size, weights, coeff, [0] * len(parities), ids)

    monkeypatch.setattr(fock, "annihilate_into", unsigned)


def _drop_koszul(monkeypatch, algebras):
    from fockcalc import fock
    prepend = fock.prepend_part

    def unsigned(mono, size, color, algebra):
        hit = prepend(mono, size, color, algebra)
        return None if hit is None else (hit[0], 1)

    monkeypatch.setattr(fock, "prepend_part", unsigned)


def _order_central(monkeypatch, algebras):
    # a b doubled when a's first basis index exceeds b's: the Heisenberg
    # sweep reads mul only for its central term, so only that term sees it
    from fockcalc import operators, surface

    def ordered(a, b):
        ab = surface.mul(a, b)
        first = min(a.coeffs, default=0), min(b.coeffs, default=0)
        return ab.scale(2) if first[0] > first[1] else ab

    monkeypatch.setattr(operators, "mul", ordered)


def _double_l_diagonal(monkeypatch, algebras):
    # L_n with its diagonal term m = n - m weighted 2 in place of 1, times D
    # as the L table holds it, also where q_1^(1) reads it
    from closure_suites import triple_virasoro_mono
    from fockcalc import generators, operators
    images = {}

    def doubled(algebra, n, color, mono):
        key = (algebra.name, n, color, mono)
        if key not in images:
            images[key] = _times_d(algebra, triple_virasoro_mono(
                algebra, n, color, mono, diagonal=2))
        return images[key]

    monkeypatch.setattr(operators, "_virasoro_mono", doubled)
    monkeypatch.setattr(generators, "_virasoro_mono", doubled)


def _shift_boundary_k(monkeypatch, algebras):
    # the K term of d on a leading part q_i(e_c) weighted i(i+1)/2 in place of
    # i(i-1)/2: the clean step, whose recursion on the rest reads the mutant,
    # plus i q_i(K e_c) on the rest, times D as the d table holds it
    from fockcalc import generators, operators
    clean = operators._boundary_mono.__wrapped__
    images = {}

    def shifted(algebra, mono):
        key = (algebra.name, mono)
        if key not in images:
            acc = dict(clean(algebra, mono))
            if mono:
                (size, color), rest = mono[0], mono[1:]
                k_alpha = operators.mul(algebra.canonical_class,
                                        algebra.basis_element(color))
                for kc, kcoeff in k_alpha.coeffs.items():
                    operators.create_into(acc, size, kc, {rest: 1},
                                          size * kcoeff * algebra.table_scale, algebra)
            images[key] = acc
        return images[key]

    monkeypatch.setattr(operators, "_boundary_mono", shifted)
    monkeypatch.setattr(generators, "_boundary_mono", shifted)


def _shift_canonical(monkeypatch, algebras):
    # K + h on p2, K + x1 on torus_like
    for alg in algebras:
        shift = alg.basis_element("h" if alg.name == "p2" else "x1")
        monkeypatch.setattr(alg, "canonical_class", alg.canonical_class + shift)


def _paired_entries(algebras):
    # an entry (u, v) of the pairing equal to 1 and its mirror (v, u): h, h on
    # p2 and x1x2, x3x4 on torus_like
    for alg, ids in zip(algebras, (("h", "h"), ("x1x2", "x3x4"))):
        u, v = (alg.index_of[i] for i in ids)
        yield alg, {(u, v), (v, u)}


def _double_kunneth(monkeypatch, algebras):
    # the coefficients of those entries in the unit's diagonal doubled, set in
    # the cache before anything reads it; doubling both orders keeps the
    # diagonal supersymmetric, as L assumes
    for alg, entries in _paired_entries(algebras):
        one = alg.unit_index
        monkeypatch.setitem(alg._diagonal_cache, one, tuple(
            (u, v, 2 * t if (u, v) in entries else t)
            for u, v, t in alg.kunneth_triples(one)))


def _double_pairing(monkeypatch, algebras):
    # those entries of the pairing doubled after load: annihilations and the
    # weights L reads where two annihilations act read the doubled entries,
    # while the integral (and so the Heisenberg central term), the dual basis,
    # the diagonal built from it and the product keep the loaded ones
    for alg, entries in _paired_entries(algebras):
        pairing = [row[:] for row in alg.pairing]
        for u, v in entries:
            pairing[u][v] *= 2
        monkeypatch.setattr(alg, "pairing", pairing)


def _shift_euler(monkeypatch, algebras):
    # the Euler class plus the point class: chi 3 -> 4 on p2, 0 -> 1 on
    # torus_like
    for alg in algebras:
        point = alg.basis_element("h2" if alg.name == "p2" else "x1x2x3x4")
        monkeypatch.setattr(alg, "euler", alg.euler + point)


def _double_ll_central(monkeypatch, algebras):
    # the Euler class doubled, which doubles the LL central term, its only
    # reader; the Euler class of torus_like is 0, so nothing changes there
    for alg in algebras:
        monkeypatch.setattr(alg, "euler", alg.euler.scale(2))


# mutant -> (patch, {column: the algebras on which it must be seen}), the same
# as the closure path shows; a column is a suite, and "LL |n|<=2" is LL with
# |n|, |m| <= 2 at weight 1, on p2 and on the even classes of torus_like.  p2
# cannot see the Koszul sign; the central-order mutant is seen by the
# Heisenberg sweep only if the mirror instance (m, n, b, a) computes its own
# central term m int(b a); no suite here pins K on p2, and qprime reads K on
# both sides.  K is 0 on torus_like, so only p2 can see the boundary K factor.
# The other calculus sweeps of torus_like run at weight 1 with |n| <= 1 and
# give Lq and LL even classes only, so of them only "LL |n|<=2", whose L_2
# creates pairs of odd parts for the annihilations to pass, sees the odd
# passage sign.  Only the LL central term reads the Euler class, and its factor
# n^3 - n vanishes at |n| <= 1, so only "LL |n|<=2" sees `euler` and the
# doubled central term (the Euler class of torus_like is 0).  Only a pair of
# creations reads the Kunneth triples, and only an L_n with n >= 2 has one:
# "LL |n|<=2", and qprime on p2 at weight 2, whose d reads L_2.  L reads the
# pairing only where two annihilations act (int(e_i e_c e_p)); an
# annihilation followed by a creation reads the product, so a pairing entry
# changed after load reaches L through that branch no more
HEISENBERG_MUTANTS = {
    "clean": (None, {}),
    "annihilation sign": (_flip_annihilation, {
        "heisenberg": ("p2", "torus_like"), "Lq": ("p2", "torus_like"),
        "LL": ("p2", "torus_like"), "nested_bracket": ("p2", "torus_like"),
        "LL |n|<=2": ("p2", "torus_like")}),
    "Koszul sign": (_drop_koszul, {
        "heisenberg": ("torus_like",), "qprime": ("torus_like",),
        "nested_bracket": ("torus_like",), "LL |n|<=2": ("torus_like",)}),
    "central order": (_order_central, {
        "heisenberg": ("p2", "torus_like"), "Lq": ("p2", "torus_like"),
        "LL": ("p2", "torus_like"), "LL |n|<=2": ("p2", "torus_like")}),
    "L diagonal weight": (_double_l_diagonal, {
        "qprime": ("p2",), "LL |n|<=2": ("p2", "torus_like")}),
    "canonical class": (_shift_canonical, {"nested_bracket": ("torus_like",)}),
    "Kunneth coefficient": (_double_kunneth, {
        "qprime": ("p2",), "LL |n|<=2": ("p2", "torus_like")}),
    "pairing entry": (_double_pairing, {
        "heisenberg": ("p2", "torus_like"), "Lq": ("p2", "torus_like"),
        "qprime": ("p2",), "LL |n|<=2": ("p2", "torus_like")}),
    "euler": (_shift_euler, {"LL |n|<=2": ("p2", "torus_like")}),
    "odd passage sign": (_drop_odd_passage, {
        "heisenberg": ("torus_like",), "LL |n|<=2": ("torus_like",)}),
    "boundary K factor": (_shift_boundary_k, {"qprime": ("p2",)}),
    "LL central term": (_double_ll_central, {"LL |n|<=2": ("p2",)}),
}
CALCULUS_SUITES = ("Lq", "LL", "qprime", "nested_bracket")


def _mutated(monkeypatch, mutant):
    """Fresh p2 and torus_like with `mutant` applied, and every discrepancy
    kept, so that records compare in full: a mirror instance failing in place
    of its first instance changes no count."""
    from closure_suites import fresh_algebra
    from fockcalc.operators import Report
    monkeypatch.setattr(Report, "max_kept", 10 ** 9)
    algebras = fresh_algebra("p2"), fresh_algebra("torus_like")
    patch = HEISENBERG_MUTANTS[mutant][0]
    if patch:
        patch(monkeypatch, algebras)
    return algebras


def _calculus_sweeps(p2, torus):
    """(algebra, weight, max_index, column -> classes), each column named by
    its suite first: basis classes and combinations with denominators; Lq and
    LL take even classes on torus_like, as the acceptance suites do."""
    p2_classes = p2.basis_elements() + [parse_element(p2, "3/4*h - 2*h2")]
    even = [parse_element(torus, t) for t in
            ("1", "x1x2", "x3x4", "x1x2x3x4", "2/3*x1x2 - 5*x3x4")]
    mixed = [parse_element(torus, t) for t in
             ("1", "x1", "x1x2", "x1x2x3", "1/2*x1 + 3*x3")]
    return ((p2, 2, 1, {"Lq": p2_classes, "LL": p2_classes, "qprime": p2_classes}),
            (torus, 1, 1, {"Lq": even, "LL": even, "qprime": mixed}),
            (p2, 1, 2, {"LL |n|<=2": p2_classes}),
            (torus, 1, 2, {"LL |n|<=2": even}))


def _row_and_closure_records(suite, alg, max_weight, max_index, classes):
    from closure_suites import closure_record
    if suite == "nested_bracket":
        return (verify_relations(suite, alg, max_weight=max_weight).to_record(),
                closure_record(suite, alg, max_weight))
    return (verify_relations(suite, alg, max_weight=max_weight, max_index=max_index,
                             classes=classes).to_record(),
            closure_record(suite, alg, max_weight, max_index, classes))


@pytest.mark.parametrize("mutant", sorted(HEISENBERG_MUTANTS))
def test_heisenberg_rows_match_the_generic_path(monkeypatch, mutant):
    p2, torus = _mutated(monkeypatch, mutant)
    seen_on = HEISENBERG_MUTANTS[mutant][1]
    # basis classes of both parities, and combinations with denominators; the
    # Heisenberg sweep reads no L, d or K, so it runs for its own mutants only
    sweeps = (
        (p2, 3, 2, {"heisenberg": p2.basis_elements()
                    + [parse_element(p2, "3/4*h - 2*h2")]}),
        (torus, 2, 1, {"heisenberg": [torus.basis_element(c) for c in
                                      ("1", "x1", "x2x3x4", "x1x2", "x3x4", "x1x2x3x4")]
                       + [parse_element(torus, "1/2*x1 + 3*x3"),
                          parse_element(torus, "2/3*x1x2 - 5*x3x4")]}),
    ) * (mutant == "clean" or "heisenberg" in seen_on) + _calculus_sweeps(p2, torus)
    for alg, max_weight, max_index, classes in sweeps:
        for column in list(classes) + ["nested_bracket"] * ("Lq" in classes):
            got, want = _row_and_closure_records(column.split()[0], alg, max_weight,
                                                 max_index, classes.get(column))
            assert got == want, (mutant, column, alg.name)
            assert got["passed"] is (alg.name not in seen_on.get(column, ())), (
                mutant, column, alg.name)


@pytest.mark.parametrize("mutant", sorted(
    m for m, (_, seen_on) in HEISENBERG_MUTANTS.items()
    if m == "clean" or "heisenberg" in seen_on))
def test_heisenberg_pairs_on_edge_class_lists(monkeypatch, mutant):
    # repeated classes share a value but not a slot, so the mirror's kept
    # images must be found by slot; x1 is odd, so its diagonal slots check
    # 2 q_n(x1) q_n(x1) e
    from closure_suites import closure_record
    p2, torus = _mutated(monkeypatch, mutant)
    h, unit = p2.basis_element("h"), p2.unit()
    x1, x3 = torus.basis_element("x1"), torus.basis_element("x3")
    sweeps = (
        (p2, 3, 2, [h, h, unit]),
        (p2, 3, 2, [h, p2.zero(), unit]),
        (p2, 3, 2, [h]),
        (torus, 2, 1, [x1, x1, x3]),
        (torus, 2, 1, [torus.zero(), x1]),
        (torus, 2, 1, [x1]),
    )
    for alg, max_weight, max_index, classes in sweeps:
        got = verify_relations("heisenberg", alg, max_weight=max_weight,
                               max_index=max_index, classes=classes).to_record()
        assert got == closure_record("heisenberg", alg, max_weight, max_index, classes)


@pytest.mark.parametrize("mutant", sorted(HEISENBERG_MUTANTS))
def test_sparse_scan_matches_the_full_scan(monkeypatch, mutant):
    # a scan visits only the keys on which a word's first op has a row (and
    # the keys a mirror takes), unless the central term is nonzero; with
    # every op's keys set to all sweep monomials each record stays the same,
    # failures included.  The nested bracket's first ops are creations, which
    # have a row on every key; its memo fills at w2 on torus_like take about
    # 3 s, so only the clean row runs it there, the mutants at w1
    from fockcalc import operators
    p2, torus = _mutated(monkeypatch, mutant)
    p2_classes = p2.basis_elements() + [parse_element(p2, "3/4*h - 2*h2")]
    even, mixed = ([parse_element(torus, t) for t in texts] for texts in (
        ("1", "x1x2", "2/3*x1x2 - 5*x3x4"), ("1", "x1", "x1x2x3", "1/2*x1 + 3*x3")))
    sweeps = ((p2, dict.fromkeys(("heisenberg", "Lq", "LL", "qprime"), p2_classes)),
              (torus, {"heisenberg": mixed, "Lq": even, "LL": even, "qprime": mixed}))
    nested = [(p2, 2), (torus, 2 if mutant == "clean" else 1)]
    sparse = operators._Rows

    class Full(sparse):
        def op(self, *args):
            got = super().op(*args)
            got.keys = list(range(len(self.monomials)))
            return got

    def records(rows_class):
        monkeypatch.setattr(operators, "_Rows", rows_class)
        got = [verify_relations(suite, alg, max_weight=2, max_index=1,
                                classes=classes[suite]).to_record()
               for alg, classes in sweeps for suite in classes]
        return got + [verify_relations("nested_bracket", alg, max_weight=w).to_record()
                      for alg, w in nested]

    want = records(sparse)
    assert records(Full) == want, mutant
    assert mutant != "clean" or all(r["passed"] for r in want)


@pytest.mark.parametrize("name, scale, suite, max_weight, max_index, texts", (
    ("p2", Rat(2, 3), "heisenberg", 3, 2, ("1", "h", "h2", "3/4*h - 2*h2")),
    ("p2", Rat(2, 3), "qprime", 2, 2, ("1", "h", "h2", "3/4*h - 2*h2")),
    ("torus_like", 1, "heisenberg", 2, 1,
     ("1/2*x1 - 3/4*x3", "2/3*x2 + 5*x1x3x4", "-7/5*x1x2 + 1/3*x3x4"))))
def test_annihilation_weights_on_rational_classes(monkeypatch, name, scale, suite,
                                                  max_weight, max_index, texts):
    # int(h2) = 2/3 gives the pairing a denominator, and the torus_like
    # classes are two-class single-parity combinations with the supports of
    # the benchmark: an annihilation's int weights w[c] = -n int(alpha e_c)
    # times its scale, made whole once, read off its row on q_n(e_c)|0> at the
    # vacuum's index 0, against the closure path
    from closure_suites import closure_record, fresh_algebra
    from fockcalc.operators import Report, _Rows
    from fockcalc.surface import integral, mul
    monkeypatch.setattr(Report, "max_kept", 10 ** 9)
    alg = fresh_algebra(name, scale)
    classes = [parse_element(alg, t) for t in texts]
    rows = _Rows(alg, 1)
    for alpha, n in itertools.product(classes, (1, 2)):
        op = rows.op(q, -n, alpha)
        assert op.scale > 1
        weights = [dict(rows.row(op, ((n, c),))).get(0, 0) for c in range(alg.dim)]
        assert weights == [-n * integral(mul(alpha, alg.basis_element(c))) * op.scale
                           for c in range(alg.dim)]
        assert all(w.__class__ is int for w in weights)
    got = verify_relations(suite, alg, max_weight=max_weight, max_index=max_index,
                           classes=classes).to_record()
    assert got == closure_record(suite, alg, max_weight, max_index, classes)
    assert got["passed"]


def test_heisenberg_rows_keep_the_errors(p2, torus):
    mixed = parse_element(torus, "1+x1")
    with pytest.raises(MixedDegree):
        verify_relations("heisenberg", torus, max_weight=1, classes=[mixed])
    previous = set_max_weight(3)
    try:
        with pytest.raises(TruncationExceeded):
            verify_relations("heisenberg", p2, max_weight=3)
    finally:
        set_max_weight(previous)


@pytest.mark.parametrize("suite", CALCULUS_SUITES)
def test_calculus_rows_keep_the_errors(p2, torus, suite):
    # a class of mixed parity has no Koszul sign; at the cap, L_n, d, q_n and
    # q_1^(k) on a weight-3 monomial climb past it
    mixed, unit = parse_element(torus, "1+x1"), torus.unit()
    with pytest.raises(MixedDegree):
        if suite == "nested_bracket":
            nested_bracket_check(1, unit, [unit, mixed], torus, 1)
        else:
            verify_relations(suite, torus, max_weight=1, max_index=1, classes=[mixed])
    previous = set_max_weight(3)
    try:
        with pytest.raises(TruncationExceeded):
            if suite == "nested_bracket":
                verify_relations(suite, p2, max_weight=3)
            else:
                verify_relations(suite, p2, max_weight=3, max_index=1)
    finally:
        set_max_weight(previous)


# p2 with int(h2) = 2/3 (Kunneth coefficient 3/2) and torus_like with its
# integral times -1/2: no preset has a pairing or a Kunneth coefficient that is
# not an int, so only these show a row scale that is too small
SCALED = (("p2", Rat(2, 3), 3, 2), ("torus_like", Rat(-1, 2), 1, 1))


@pytest.mark.parametrize("name, scale, max_weight, max_index", SCALED)
@pytest.mark.parametrize("suite", CALCULUS_SUITES)
def test_rows_are_exact_on_non_integral_algebras(monkeypatch, suite, name, scale,
                                                 max_weight, max_index):
    from closure_suites import fresh_algebra
    from fockcalc.operators import Report
    monkeypatch.setattr(Report, "max_kept", 10 ** 9)
    alg = fresh_algebra(name, scale)
    classes = alg.basis_elements() if suite != "LL" else alg.even_basis_elements()
    got, want = _row_and_closure_records(suite, alg, max_weight, max_index, classes)
    assert got == want
    assert got["passed"]


def test_rows_refuse_a_coefficient_that_is_not_whole(monkeypatch):
    # with the memo tables' D forced to 1, the Kunneth data that L_n reads
    # times D/2 are not whole on p2 at int(h2) = 2/3 (nor on any algebra): the
    # L table raises, not rounds
    from closure_suites import fresh_algebra
    alg = fresh_algebra("p2", Rat(2, 3))
    monkeypatch.setattr(alg, "table_scale", 1)
    with pytest.raises(ArithmeticError, match="not whole"):
        verify_relations("LL", alg, max_weight=2, max_index=2)


def test_row_discrepancies_match_the_closure_path(monkeypatch):
    # mul doubled makes two false identities on both paths: the Heisenberg
    # central term doubled leaves residuals at the monomial itself, and the
    # Lq right side -m q_{n+m}(ab) doubled leaves some residuals only above
    # the sweep weight, where the scan keys monomials by themselves
    from closure_suites import closure_record, fresh_algebra
    from fockcalc import fock, operators, surface
    from fockcalc.operators import SUITES, Report
    monkeypatch.setattr(Report, "max_kept", 10 ** 9)
    monkeypatch.setattr(operators, "mul", lambda a, b: surface.mul(a, b).scale(2))
    alg = fresh_algebra("p2")
    classes = alg.basis_elements() + [parse_element(alg, "3/4*h - 2*h2")]
    seen = set()
    for suite in ("heisenberg", "Lq"):
        for instance in SUITES[suite](alg, 2, 1, classes)[1]:
            for mono, diff in instance.residuals():
                if set(diff) == {mono}:
                    seen.add((suite, "at the key"))
                elif all(fock.weight(t) > 2 for t in diff):
                    seen.add((suite, "above the sweep"))
        got = verify_relations(suite, alg, max_weight=2, max_index=1,
                               classes=classes).to_record()
        assert got == closure_record(suite, alg, 2, 1, classes), suite
        assert len(got["discrepancies"]) == got["discrepancy_count"] > 25, suite
    assert seen == {("heisenberg", "at the key"), ("Lq", "above the sweep")}


def test_expansion_rows_match_the_closure_path(monkeypatch, p2, torus):
    # the expansion suite's rows against one commutator_expand call per
    # monomial, clean and with every a = 2 expansion divided by 3, which no
    # int row could hold: under it both paths report the same discrepancies
    from closure_suites import closure_record
    from fockcalc import generators
    from fockcalc.operators import Report
    monkeypatch.setattr(Report, "max_kept", 10 ** 9)
    expand = generators.commutator_expand

    def third(g, a, mono, bracket_oracle=None):
        got = expand(g, a, mono, bracket_oracle)
        return got.scale(Rat(1, 3)) if a == 2 else got

    for mutant in (None, third):
        if mutant:
            monkeypatch.setattr(generators, "commutator_expand", mutant)
        for alg, max_weight in ((p2, 3), (torus, 2)):
            got = verify_relations("expansion", alg, max_weight=max_weight).to_record()
            assert got == closure_record("expansion", alg, max_weight), alg.name
            assert got["passed"] is (mutant is None), alg.name


def test_sweeps_check_the_operators_the_constructors_return(monkeypatch, p2):
    # every op of a sweep is tabled from the operator its public constructor
    # returns: L_n, d and q_1^(k) made with table factor 1 (images D, D and
    # D^k times too large) and a q whose annihilations double their class
    # each fail a suite that passes with the clean constructor
    from fockcalc import generators, operators
    clean_q = operators.q

    mutants = (
        (operators, "virasoro", lambda n, alpha: operators._operator(
            operators._virasoro_mono, n, alpha, 1, n, 2 * n, f"L_{n}({alpha!r})"),
         "Lq"),
        (operators, "boundary_d", lambda alg: operators._operator(
            operators._boundary_mono, None, alg.unit(), 1, 0, 2, "d"), "qprime"),
        (generators, "q1_kth_bracket", lambda k, alpha: operators._operator(
            generators._q1k_mono, k, alpha, 1, 1, 2 * k, f"q_1^({k})({alpha!r})"),
         "nested_bracket"),
        (operators, "q", lambda n, alpha: clean_q(n, alpha.scale(2) if n < 0 else alpha),
         "heisenberg"))
    for module, name, mutant, suite in mutants:
        kwargs = {} if suite == "nested_bracket" else {"max_index": 1}
        assert verify_relations(suite, p2, max_weight=2, **kwargs).passed, name
        with monkeypatch.context() as patch:
            patch.setattr(module, name, mutant)
            assert not verify_relations(suite, p2, max_weight=2, **kwargs).passed, name


def test_every_kept_image_is_read_once(monkeypatch, p2, torus):
    # each first instance of a slot pair keeps its images for its mirror,
    # which pops them; images never popped would hold memory for the sweep
    from fockcalc import operators
    made = []

    class Kept(dict):
        def __setitem__(self, slots, kept):
            self.images.append(kept[1])
            super().__setitem__(slots, kept)

    class Recorded(operators._Rows):
        def __init__(self, *args):
            super().__init__(*args)
            self.kept = Kept()
            self.kept.images = []
            made.append(self)

    monkeypatch.setattr(operators, "_Rows", Recorded)
    for suite, alg, max_weight, max_index in (
            ("heisenberg", p2, 3, None), ("LL", p2, 3, None),
            ("heisenberg", torus, 2, 1), ("LL", torus, 2, 1)):
        assert verify_relations(suite, alg, max_weight=max_weight,
                                max_index=max_index).passed
    assert len(made) == 4
    for rows in made:
        assert rows.kept == {} and rows.kept.images
        assert not any(rows.kept.images)


def test_every_op_is_read_by_a_word(monkeypatch, p2):
    # an op's table is filled on every sweep monomial when the op is made, so
    # an op that no word with a nonzero coefficient reads is filled for nothing
    from fockcalc import operators
    made, read = [], set()

    class Recorded(operators._Rows):
        def op(self, *args):
            known = len(self.ops)
            got = super().op(*args)
            if len(self.ops) > known:
                made.append(got)
            return got

        def check(self, *args):
            instance = super().check(*args)
            read.update(op for word, c in instance.lhs + instance.rhs if c
                        for op in word)
            return instance

    monkeypatch.setattr(operators, "_Rows", Recorded)
    for suite in operators.SUITES:
        assert verify_relations(suite, p2, max_weight=2).passed, suite
        assert all(op in read for op in made), suite
    assert made


@pytest.mark.parametrize("fixture, max_weight", (("p2", 2), ("torus", 1)))
def test_op_tables_key_every_sweep_monomial_by_its_index(monkeypatch, request,
                                                         fixture, max_weight):
    # _Op keys every table through ids, since a creation's kernel keys its
    # terms by their monomials: every table of a sweep equals its rows with
    # each key mapped
    from fockcalc import operators
    alg, made = request.getfixturevalue(fixture), []

    class Recorded(operators._Rows):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(operators, "_Rows", Recorded)
    even = alg.even_basis_elements()
    for suite, kwargs in (("heisenberg", {"max_index": 2}), ("Lq", {"classes": even}),
                          ("LL", {}), ("qprime", {}), ("nested_bracket", {})):
        assert verify_relations(suite, alg, max_weight=max_weight, **kwargs).passed
    assert len(made) == 5
    for rows in made:
        ids = rows.ids
        assert rows.ops
        for op in rows.ops.values():
            assert op.table == [tuple([(ids.get(t, t), c) for t, c in rows.row(op, m)])
                                for m in rows.monomials]


@pytest.mark.parametrize("name, scale", (
    ("point", 1), ("p2", 1), ("p1xp1", 1), ("torus_like", 1), ("p2", Rat(2, 3))))
def test_q_matches_the_reference_kernels(name, scale):
    # the public q_n(alpha) against reference_q, which applies
    # fock.create_into or fock.contract_into once per class of alpha, for
    # n = +-1..+-3 on every monomial of weight <= 3, with basis classes
    # (sampled past dim 4) and two rational combinations: equal values, and
    # an int exactly where the value is whole.  The reference multiplies the
    # class's Rats into the terms and may keep a whole one (as on p2 at
    # int(h2) = 2/3); q divides its int sum once, through ratio
    from closure_suites import fresh_algebra, reference_q
    alg = fresh_algebra(name, scale)
    colors = range(alg.dim) if alg.dim <= 4 else (0, 1, 5, alg.dim - 1)
    classes = [alg.basis_element(c) for c in colors]
    classes += [sum(classes[1:], classes[0].scale(Rat(1, 3))),
                classes[-1].scale(Rat(-5, 2)) + classes[0].scale(Rat(3, 7))]
    vectors = [FockVector(alg, {m: 1}) for w in range(4) for m in monomial_basis(w, alg)]
    whole_seen = 0
    for alpha, n in itertools.product(classes, (-3, -2, -1, 1, 2, 3)):
        got_op, want_op = q(n, alpha), reference_q(n, alpha)
        for v in vectors:
            got, want = got_op(v).terms, want_op(v).terms
            assert got == want, (n, alpha, v)
            for m, c in got.items():
                assert (c.__class__ is int) is (want[m].denominator == 1), (n, alpha, v)
                whole_seen += c.__class__ is int
    assert whole_seen


@pytest.mark.parametrize("name, scale, texts", (
    ("p2", 1, ("1", "h", "h2", "3/4*h - 2*h2")),
    ("torus_like", 1, ("1", "x1", "x1x2", "x2x3x4", "1/2*x1 + 3*x3", "x1 - 2*x2")),
    ("p2", Rat(2, 3), ("1", "h2", "3/4*h - 2*h2"))))
def test_q_rows_match_the_operator_images(name, scale, texts):
    # rows of q_n, L_n, q_1^(k) and d against the operator on alpha times the
    # op's scale (D^k times the class's denominator for the memo ops), keyed
    # through ids; q_n against reference_q, which shares no kernel with the
    # rows (fock.create_into / contract_into): the table on every sweep monomial
    # (weight <= 1), and row on monomials of weight 2 and 3 above it, where
    # annihilations meet repeated equal parts and may land back in the sweep;
    # odd classes of torus_like bring Koszul signs, and p2 at int(h2) = 2/3 a
    # pairing with a denominator
    from closure_suites import fresh_algebra, reference_q
    from fockcalc.generators import q1_kth_bracket
    from fockcalc.operators import _Rows
    alg = fresh_algebra(name, scale)
    rows = _Rows(alg, 1)
    above = [m for w in (2, 3) for m in monomial_basis(w, alg)]
    d = rows.op(boundary_d, alg)
    cases = [(d, boundary_d(alg) * d.scale)]
    for text in texts:
        alpha = parse_element(alg, text)
        ops = [(reference_q, n, rows.op(q, n, alpha)) for n in (-2, -1, 1, 2)]
        ops += [(virasoro, n, rows.op(virasoro, n, alpha)) for n in (-1, 0, 2)]
        ops += [(q1_kth_bracket, k, rows.op(q1_kth_bracket, k, alpha)) for k in (1, 2)]
        cases += [(op, make(i, alpha.scale(op.scale))) for make, i, op in ops]
    for op, operator in cases:
        image = operator.fn
        assert len(op.table) == len(rows.monomials)
        for mono, got in itertools.chain(zip(rows.monomials, op.table),
                                         ((m, rows.row(op, m)) for m in above)):
            want = image({mono: 1})
            assert dict(got) == {rows.ids.get(t, t): c for t, c in want.items()}, (
                operator, mono)
            assert len(dict(got)) == len(got)
            assert all(c.__class__ is int for _, c in got)
            # the kernel adds c times the row into a sum that already holds
            # the row's keys, and c then -c leave only zero values
            row = rows.row(op, mono)
            seed = {0: 5, **{t: 7 for t, _ in row}}
            acc, undone = dict(seed), {}
            op.into(acc, mono, 3)
            for c in (3, -3):
                op.into(undone, mono, c)
            added = {t: acc.get(t, 0) - seed.get(t, 0) for t in acc.keys() | seed.keys()}
            assert ({t: d for t, d in added.items() if d} == {t: 3 * c for t, c in row}
                    and not any(undone.values())), (operator, mono)
