"""Fock space basics: canonical monomials, signs, bilinear form, truncation."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc import (
    FockVector,
    InvalidPart,
    Rat,
    TruncationExceeded,
    bidegree,
    canonicalize,
    fh_support_bound,
    inner_product,
    monomial_basis,
    render_vector,
    set_max_weight,
)
from fockcalc.class_algebra import partitions_of
from fockcalc.fock import prepend_part
from fockcalc.operators import adjoint_matrix, boundary_d, gram_matrix, q
from fockcalc._linalg import RowSpan


def vec(alg, *parts):
    return canonicalize(alg, [(s, alg.basis_element(c)) for s, c in parts])


# -- canonicalization -----------------------------------------------------------


def test_canonicalize_examples(p2, torus):
    h = p2.basis_element("h")
    v = canonicalize(p2, [(1, h), (2, h)])
    ih = p2.index_of["h"]
    assert v.terms == {((2, ih), (1, ih)): 1}

    x1, x2 = torus.basis_element("x1"), torus.basis_element("x2")
    assert canonicalize(torus, [(1, x1), (1, x1)]).is_zero()
    flipped = canonicalize(torus, [(1, x2), (1, x1)])
    i1, i2 = torus.index_of["x1"], torus.index_of["x2"]
    assert flipped.terms == {((1, i1), (1, i2)): -1}


def test_canonicalize_rejects_bad_sizes(p2):
    with pytest.raises(InvalidPart):
        canonicalize(p2, [(0, p2.unit())])


def test_canonicalize_multilinear(p2):
    h, h2 = p2.basis_element("h"), p2.basis_element("h2")
    combo = canonicalize(p2, [(2, h + h2.scale(3))])
    assert combo == vec(p2, (2, 1)) + vec(p2, (2, 2)).scale(3)


def test_canonicalize_reads_an_iterator_once(p2):
    # the part-size check must not use up the factors the product reads
    u = p2.unit()
    (unit,) = u.coeffs
    got = canonicalize(p2, ((1, u) for _ in range(2)))
    assert got == canonicalize(p2, [(1, u)] * 2)
    assert got.terms == {((1, unit), (1, unit)): 1}


def brute_koszul_sign(parts, parities):
    """Independent sign oracle: bubble the list into canonical order, counting
    -1 for every adjacent swap of two odd factors."""
    work = list(parts)
    sign = 1
    keyed = lambda p: (-p[0], p[1])
    changed = True
    while changed:
        changed = False
        for k in range(len(work) - 1):
            if keyed(work[k]) > keyed(work[k + 1]):
                if parities[work[k][1]] and parities[work[k + 1][1]]:
                    sign = -sign
                work[k], work[k + 1] = work[k + 1], work[k]
                changed = True
    return sign, tuple(work)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_canonicalize_sign_consistent_under_permutation(data):
    from fockcalc import load_preset
    torus = load_preset("torus_like")
    parts = data.draw(st.lists(
        st.tuples(st.integers(1, 3), st.integers(0, torus.dim - 1)),
        min_size=1, max_size=4))
    perm = data.draw(st.permutations(range(len(parts))))
    base = canonicalize(torus, [(s, torus.basis_element(c)) for s, c in parts])
    permuted_parts = [parts[k] for k in perm]
    permuted = canonicalize(
        torus, [(s, torus.basis_element(c)) for s, c in permuted_parts])
    # Koszul sign of the permutation itself, from the independent oracle
    sign_base, mono = brute_koszul_sign(parts, torus.parities)
    sign_perm, mono2 = brute_koszul_sign(permuted_parts, torus.parities)
    odd = [p for p in parts if torus.parities[p[1]]]
    if len(set(odd)) != len(odd):
        assert base.is_zero() and permuted.is_zero()
    else:
        assert mono == mono2
        assert base.terms == {mono: Rat(sign_base)}
        assert permuted.terms == {mono: Rat(sign_perm)}


def test_canonicalize_permutation_invariant_even_colors(p2):
    parts = [(2, 1), (1, 0), (1, 2), (2, 1)]
    expect = canonicalize(p2, [(s, p2.basis_element(c)) for s, c in parts])
    for perm in itertools.permutations(parts):
        got = canonicalize(p2, [(s, p2.basis_element(c)) for s, c in perm])
        assert got == expect


# -- bidegree and filtration -----------------------------------------------------


def test_bidegree_examples(p2):
    assert bidegree(vec(p2, (2, 1))) == (2, 4)
    assert bidegree(FockVector.vacuum(p2)) == (0, 0)
    mixed = vec(p2, (1, 0)) + vec(p2, (2, 0))
    assert bidegree(mixed) is None


def test_fh_support_bound(p2):
    v = vec(p2, (3, 1), (1, 0))
    assert fh_support_bound(v, 2)
    assert not fh_support_bound(v, 1)
    assert fh_support_bound(FockVector.zero(p2), 0)


# -- monomial basis ----------------------------------------------------------------


def count_colored_partitions(n, algebra):
    """Independent dimension oracle: multiset color choices per part size,
    odd colors at most once."""
    odd = sum(1 for p in algebra.parities if p)
    even = algebra.dim - odd
    total = 0
    for lam in partitions_of(n):
        ways = 1
        for size, grp in itertools.groupby(lam):
            mult = sum(1 for _ in grp)
            ways *= sum(
                _comb(odd, k) * _comb(even + (mult - k) - 1, mult - k)
                for k in range(min(odd, mult) + 1))
        total += ways
    return total


def _comb(n, k):
    import math
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def test_monomial_basis_examples(p2, point):
    assert len(monomial_basis(2, p2)) == 9
    assert monomial_basis(0, p2) == [()]
    assert monomial_basis(1, point) == [((1, 0),)]


def test_monomial_basis_counts_match_oracle(p2, p1xp1, torus, point):
    for alg, top in ((p2, 6), (p1xp1, 5), (torus, 4), (point, 8)):
        for n in range(top + 1):
            assert len(monomial_basis(n, alg)) == count_colored_partitions(n, alg)


def test_monomial_basis_sorted_and_unique(torus):
    basis = monomial_basis(3, torus)
    assert len(set(basis)) == len(basis)
    from fockcalc.fock import sort_key
    assert basis == sorted(basis, key=sort_key)


def test_point_basis_counts_partitions(point):
    for n in range(9):
        assert len(monomial_basis(n, point)) == len(partitions_of(n))


def is_canonical(mono, parities):
    """Sizes weakly decreasing, colors weakly increasing within a size, an
    odd color at most once per size."""
    for (s, c), (t, d) in zip(mono, mono[1:]):
        if t > s or (t == s and (d < c or (d == c and parities[c]))):
            return False
    return True


def closure_basis(n, alg):
    """Independent enumeration: close {()} under prepend_part with parts of
    total size n, keeping only canonical results with sign +1."""
    by_weight = [{()}]
    for w in range(1, n + 1):
        level = set()
        for size in range(1, w + 1):
            for mono in by_weight[w - size]:
                for color in range(alg.dim):
                    hit = prepend_part(mono, size, color, alg)
                    if hit and hit[1] == 1 and is_canonical(hit[0], alg.parities):
                        level.add(hit[0])
        by_weight.append(level)
    return by_weight[n]


def test_monomial_basis_equals_prepend_closure(p2, p1xp1, torus, point):
    from fockcalc.fock import degree
    for alg, top in ((p2, 4), (p1xp1, 4), (torus, 3), (point, 6)):
        for n in range(top + 1):
            expect = closure_basis(n, alg)
            basis = monomial_basis(n, alg)
            assert all(is_canonical(m, alg.parities) for m in basis), (alg.name, n)
            assert len(set(basis)) == len(basis) and set(basis) == expect
            degrees = {degree(m, alg) for m in expect}
            for d in sorted(degrees) + [max(degrees) + 1]:
                assert set(monomial_basis(n, alg, degree_filter=d)) == {
                    m for m in expect if degree(m, alg) == d}, (alg.name, n, d)


# -- inner product -----------------------------------------------------------------


def test_inner_product_examples(p2):
    one, h, h2 = p2.unit(), p2.basis_element("h"), p2.basis_element("h2")
    q1h = canonicalize(p2, [(1, h)])
    assert inner_product(q1h, q1h) == 1
    q2one = canonicalize(p2, [(2, one)])
    q11 = canonicalize(p2, [(1, one), (1, one)])
    assert inner_product(q2one, q11) == 0
    assert inner_product(q2one, canonicalize(p2, [(2, h2)])) == -2
    assert inner_product(FockVector.vacuum(p2), FockVector.vacuum(p2)) == 1


def test_inner_product_vanishes_across_bidegrees(p2):
    basis3 = [FockVector(p2, {m: Rat(1)}) for m in monomial_basis(3, p2)]
    from fockcalc.fock import degree
    for u in basis3:
        for v in basis3:
            du = bidegree(u)[1]
            dv = bidegree(v)[1]
            if du + dv != 12:
                assert inner_product(u, v) == 0


def test_super_symmetry(torus):
    monos = monomial_basis(2, torus) + monomial_basis(3, torus)[:40]
    from fockcalc.fock import degree
    for a in monos[:60]:
        for b in monos[:60]:
            u = FockVector(torus, {a: Rat(1)})
            v = FockVector(torus, {b: Rat(1)})
            sign = -1 if (degree(a, torus) & 1 and degree(b, torus) & 1) else 1
            assert inner_product(u, v) == sign * inner_product(v, u)


def test_gram_nondegenerate_low_weight(p2, torus, point):
    for alg, top in ((p2, 4), (torus, 2), (point, 5)):
        for n in range(1, top + 1):
            degrees = sorted({sum(2 * (s - 1) + alg.degrees[c] for s, c in m)
                              for m in monomial_basis(n, alg)})
            for i in degrees:
                rows, rbasis, cbasis = gram_matrix(alg, n, i)
                assert len(rbasis) == len(cbasis), (n, i)
                if rbasis:
                    span = RowSpan(len(cbasis))
                    for row in rows:
                        span.add(row)
                    assert span.dimension == len(rbasis), (n, i)


# -- the pairing against its shape-blind reference ----------------------------------

# case: (preset, integral scale, class of q_n, top weight); the class on
# torus_like is odd, and the scaled p2 has integral h2 = 2/3
PAIRING_CASES = {"p2": ("p2", 1, "h", 4), "p1xp1": ("p1xp1", 1, "f", 4),
                 "torus_like": ("torus_like", 1, "x1", 3),
                 "p2 h2 = 2/3": ("p2", Rat(2, 3), "h", 4)}


@functools.lru_cache(maxsize=None)
def pairing_algebra(case):
    from closure_suites import fresh_algebra
    name, scale, _, _ = PAIRING_CASES[case]
    return fresh_algebra(name, scale)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(PAIRING_CASES)), st.data())
def test_inner_product_matches_the_shape_blind_reference(case, data):
    # u on one piece, v on its complement, each with a few terms of any
    # degree beside: mixed shapes on both sides, odd parts on torus_like
    from closure_suites import reference_inner_product
    alg = pairing_algebra(case)
    n = data.draw(st.integers(0, PAIRING_CASES[case][3]))
    i = data.draw(st.integers(0, 4 * n))
    coeff = st.builds(Rat, st.integers(-4, 4), st.integers(1, 3))

    def draw_vector(degree):
        piece = monomial_basis(n, alg, degree_filter=degree)
        terms = {}
        if piece:
            terms.update(data.draw(st.dictionaries(st.sampled_from(piece), coeff,
                                                   max_size=6)))
        terms.update(data.draw(st.dictionaries(
            st.sampled_from(monomial_basis(n, alg)), coeff, max_size=2)))
        return FockVector(alg, terms)

    u, v = draw_vector(i), draw_vector(4 * n - i)
    assert inner_product(u, v) == reference_inner_product(u, v)
    assert inner_product(v, u) == reference_inner_product(v, u)


@pytest.mark.parametrize("case", sorted(PAIRING_CASES))
def test_gram_and_adjoint_match_the_shape_blind_reference(case):
    from closure_suites import reference_adjoint_matrix, reference_gram_matrix
    alg = pairing_algebra(case)
    _, _, gamma, top = PAIRING_CASES[case]
    ops = [boundary_d(alg)] + [q(k, alg.basis_element(gamma)) for k in (1, -1, 2, -2)]
    for n in range(top + 1):
        for i in range(4 * n + 1):
            assert gram_matrix(alg, n, i) == reference_gram_matrix(alg, n, i), (n, i)
            # every source piece whose target is at most the top weight too
            for f in ops:
                if n - f.bidegree()[0] <= top:
                    assert adjoint_matrix(f, (n, i)) == reference_adjoint_matrix(f, (n, i)), \
                        (f, n, i)


# -- truncation --------------------------------------------------------------------


def test_truncation_guard(p2):
    prev = set_max_weight(3)
    try:
        with pytest.raises(TruncationExceeded):
            canonicalize(p2, [(2, p2.unit()), (2, p2.unit())])
        v = canonicalize(p2, [(3, p2.unit())])
        with pytest.raises(TruncationExceeded):
            prepend_part(next(iter(v.terms)), 1, 0, p2)
    finally:
        set_max_weight(prev)


def test_truncation_guard_at_the_cap(p2, torus):
    # the guard sums the weight only when len(mono) * first size passes the
    # cap, so monomials whose bound passes it while their weight does not
    # must still take parts up to the cap, and none above it
    u, x1 = p2.unit_index, torus.index_of["x1"]
    prev = set_max_weight(6)
    try:
        for alg, c, mono in ((p2, u, ()), (p2, u, ((3, u), (1, u), (1, u))),
                             (p2, u, ((2, u), (2, u), (1, u))), (p2, u, ((1, u),) * 4),
                             (torus, x1, ((3, x1), (1, 0), (1, 0))),
                             (p2, u, ((4, u), (2, u)))):
            room = 6 - sum(s for s, _ in mono)
            if room:
                assert sum(s for s, _ in prepend_part(mono, room, c, alg)[0]) == 6
            with pytest.raises(TruncationExceeded):
                prepend_part(mono, room + 1, c, alg)
    finally:
        set_max_weight(prev)


# -- rendering ---------------------------------------------------------------------


def test_render_vector(p2):
    h = p2.basis_element("h")
    v = canonicalize(p2, [(2, h)]).scale(Rat(-1, 2))
    assert render_vector(v) == "-1/2 * q_2(h) |0>"
    v2 = canonicalize(p2, [(2, p2.unit())]) - canonicalize(p2, [(1, h)]).scale(3)
    assert render_vector(v2) == "-3 * q_1(h) |0> + 1 * q_2(1) |0>"
    assert render_vector(FockVector.zero(p2)) == "0"
    assert render_vector(FockVector.vacuum(p2)) == "1 * |0>"
