"""Symmetric-group class algebra: sizes, products, filtration, generation."""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc import CapExceeded, Rat, class_product, class_size, fh_degree
from fockcalc import class_algebra
from fockcalc.class_algebra import (
    CentralElement,
    b_analog,
    generation_closure,
    partition_count,
    partitions_of,
    render_central,
)
from sn_enumeration import (
    cycle_type,
    enumerated_product_row,
    permutations_of_type,
    representative,
)


# -- independent oracle: full double-loop convolution ---------------------------


def brute_class_product(lam, mu, n):
    """O(|C_lam| * |C_mu|) oracle, independent of representative-and-count."""
    counts = {}
    for g in permutations_of_type(lam, n):
        for h in permutations_of_type(mu, n):
            gh = tuple(g[h[i]] for i in range(n))
            counts[gh] = counts.get(gh, 0) + 1
    # group by cycle type; coefficients must be constant on classes
    by_type = {}
    for perm, c in counts.items():
        t = cycle_type(perm)
        by_type.setdefault(t, set()).add(c)
    out = {}
    for t, vals in by_type.items():
        assert len(vals) == 1, "product not central?!"
        out[t] = vals.pop()
    return out


def all_permutations_bucketed(n):
    buckets = {}
    for perm in itertools.permutations(range(n)):
        buckets.setdefault(cycle_type(perm), []).append(perm)
    return buckets


# -- sizes and enumeration -------------------------------------------------------


def test_class_size_examples():
    assert class_size((2, 1)) == 3
    assert class_size((3,)) == 2
    assert class_size((1, 1, 1, 1)) == 1
    assert class_size((8,)) == math.factorial(8) // 8


def test_enumeration_matches_sizes():
    for n in range(1, 7):
        buckets = all_permutations_bucketed(n)
        for lam in partitions_of(n):
            listed = list(permutations_of_type(lam, n))
            assert len(listed) == class_size(lam)
            assert len(set(listed)) == len(listed)
            assert set(listed) == set(buckets[lam])


def test_representative_has_right_type():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert cycle_type(representative(lam, n)) == lam


def test_fh_degree():
    assert fh_degree((1, 1, 1)) == 0
    assert fh_degree((3,)) == 2
    assert fh_degree((2, 2)) == 2


def test_partition_counts():
    # Euler's pentagonal recurrence as the independent counting oracle
    p = [1]
    for n in range(1, 12):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    for n in range(12):
        assert partition_count(n) == p[n]
    assert partition_count(8) == 22


# -- products ---------------------------------------------------------------------


def test_s3_product_frozen():
    prod = class_product((2, 1), (2, 1), 3)
    assert prod.coeffs == {(1, 1, 1): 3, (3,): 3}
    assert render_central(prod) == "3*C[1,1,1] + 3*C[3]"


def test_identity_is_neutral():
    for n in (3, 4, 5):
        ident = (1,) * n
        for lam in partitions_of(n):
            assert class_product(ident, lam, n).coeffs == {lam: 1}
            assert class_product(lam, ident, n).coeffs == {lam: 1}


def test_s4_contains_double_transposition():
    prod = class_product((2, 1, 1), (2, 1, 1), 4)
    assert prod.coeffs[(2, 2)] > 0


def test_products_match_bruteforce_oracle():
    for n in (2, 3, 4):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                got = class_product(lam, mu, n)
                expect = brute_class_product(lam, mu, n)
                assert {p: int(c) for p, c in got.coeffs.items()} == expect, (lam, mu)


def test_product_rows_match_enumeration():
    # every class up to S_7, and the hook classes C_(i+1,1^(7-i)) of S_8
    cases = [(lam, n) for n in range(1, 8) for lam in partitions_of(n)]
    cases += [((i + 1,) + (1,) * (7 - i), 8) for i in range(8)]
    for lam, n in cases:
        # row[nu][mu] from the columns C_lam * C_mu = {nu: count}
        columns = class_algebra._product_row(lam, n)
        row = {nu: {} for nu in partitions_of(n)}
        for mu in partitions_of(n):
            for nu, count in columns[mu].items():
                row[nu][mu] = count
        assert row == enumerated_product_row(lam, n), lam


def test_coefficients_stay_ints():
    for n in (3, 5, 7):
        for lam, mu in itertools.product(partitions_of(n), repeat=2):
            prod = class_product(lam, mu, n)
            conv = CentralElement.class_sum(lam) * CentralElement.class_sum(mu)
            assert prod == conv
            for c in list(prod.coeffs.values()) + list(conv.coeffs.values()):
                assert type(c) is int, (lam, mu, c)


def test_structure_constants_symmetric_and_integral():
    for n in (3, 4, 5, 6):
        for lam, mu in itertools.combinations_with_replacement(partitions_of(n), 2):
            ab = class_product(lam, mu, n)
            ba = class_product(mu, lam, n)
            assert ab == ba
            for c in ab.coeffs.values():
                assert c == int(c) and c > 0


def test_filtration_subadditive():
    for n in (3, 4, 5, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                prod = class_product(lam, mu, n)
                bound = fh_degree(lam) + fh_degree(mu)
                for nu in prod.coeffs:
                    assert fh_degree(nu) <= bound, (lam, mu, nu)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_central_element_algebra_random(n, data):
    parts = partitions_of(n)
    pick = lambda: parts[data.draw(st.integers(0, len(parts) - 1))]
    a = CentralElement(n, {pick(): data.draw(st.integers(-3, 3))})
    b = CentralElement(n, {pick(): data.draw(st.integers(-3, 3))})
    c = CentralElement(n, {pick(): 1})
    # bilinearity and commutativity of the convolution product
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        class_product((10,), (10,), 10)
    with pytest.raises(CapExceeded):
        generation_closure([], 12)


# -- the character table ---------------------------------------------------------


def hook_length_dimension(rho):
    n = sum(rho)
    conjugate = [sum(1 for p in rho if p > j) for j in range(rho[0] if rho else 0)]
    hooks = 1
    for i, row in enumerate(rho):
        for j in range(row):
            hooks *= (row - j - 1) + (conjugate[j] - i - 1) + 1  # arm + leg + 1
    return math.factorial(n) // hooks


@pytest.mark.parametrize("n", range(1, 11))
def test_character_table_orthogonality(n):
    table = class_algebra._character_table(n)
    order = math.factorial(n)
    classes = partitions_of(n)
    irreps = range(len(classes))
    for a in irreps:
        for b in irreps:
            total = sum(class_size(k) * table[k][a] * table[k][b] for k in classes)
            assert total == (order if a == b else 0), (n, a, b)
    for k in classes:
        for l in classes:
            total = class_size(k) * sum(x * y for x, y in zip(table[k], table[l]))
            assert total == (order if k == l else 0), (n, k, l)


@pytest.mark.parametrize("n", range(1, 11))
def test_character_degrees_and_linear_characters(n):
    table = class_algebra._character_table(n)
    classes = partitions_of(n)
    # characters are indexed like partitions_of(n): (n) first, (1^n) last
    assert [table[(1,) * n][a] for a in range(len(classes))] == \
        [hook_length_dimension(rho) for rho in classes]
    for k in classes:
        assert table[k][0] == 1
        assert table[k][-1] == (-1) ** (n - len(k))


@pytest.mark.parametrize("n", range(1, 11))
def test_character_table_matches_the_rim_hook_rule(n, monkeypatch):
    # a fresh build, entry by entry against the frozenset bead walk below
    monkeypatch.setattr(class_algebra, "_ROW_CACHE", {})
    table = class_algebra._character_table(n)
    classes = partitions_of(n)
    for a, rho in enumerate(classes):
        beta = beta_set(rho)
        for nu in classes:
            assert table[nu][a] == _rim_hook_character(beta, nu), (n, rho, nu)


def test_corrupted_character_table_raises(monkeypatch):
    monkeypatch.setattr(class_algebra, "_ROW_CACHE", {})
    table = class_algebra._character_table(5)
    col = list(table[(3, 2)])
    col[1] += 1
    table[(3, 2)] = tuple(col)
    row = class_algebra._product_row((3, 2), 5)
    with pytest.raises(ArithmeticError):
        for mu in partitions_of(5):
            row[mu]


# -- generation --------------------------------------------------------------------


def test_b_analog():
    assert b_analog(0, 4).coeffs == {(1, 1, 1, 1): 1}
    assert b_analog(1, 3).coeffs == {(2, 1): 1}
    assert b_analog(3, 4).coeffs == {(4,): 1}
    with pytest.raises(IndexError):
        b_analog(4, 4)


def test_generation_small():
    for n in (2, 3, 4, 5):
        rep = generation_closure([b_analog(i, n) for i in range(n)], n)
        assert rep.generated
        assert rep.dimension == partition_count(n)
        assert rep.dim_trajectory[0] == n  # the seed classes are independent


def test_generation_beyond_s8():
    # p(9) to p(12), with the cap lifted to n for this call only
    for n, p in ((9, 30), (10, 42), (11, 56), (12, 77)):
        rep = generation_closure([b_analog(i, n) for i in range(n)], n, cap=n)
        assert rep.generated and rep.dimension == p, n


def test_generation_profile_monotone():
    rep = generation_closure([b_analog(i, 5) for i in range(5)], 5)
    assert rep.fh_profile == sorted(rep.fh_profile)
    assert rep.fh_profile[-1] == 4  # top filtration degree n - 1


# (dim_trajectory, fh_profile, rounds) for n = 2..8, from multiplying every
# ordered pair of the span basis in every round
CLOSURE_PROFILES = {
    "all": {2: ([2, 2], [1, 1], 1), 3: ([3, 3], [2, 2], 1),
            4: ([4, 5], [3, 3], 1), 5: ([5, 7], [4, 4], 1),
            6: ([6, 11], [5, 5], 1), 7: ([7, 15], [6, 6], 1),
            8: ([8, 22], [7, 7], 1)},
    "drop two-cycle": {2: ([1, 1], [0, 0], 1), 3: ([2, 2], [2, 2], 1),
                       4: ([3, 5], [3, 3], 1), 5: ([4, 6, 6], [4, 4, 4], 2),
                       6: ([5, 11], [5, 5], 1), 7: ([6, 15], [6, 6], 1),
                       8: ([7, 21, 21], [7, 7, 7], 2)},
    "top cycle": {2: ([2, 2], [1, 1], 1), 3: ([2, 2], [2, 2], 1),
                  4: ([2, 3, 5], [3, 3, 3], 2),
                  5: ([2, 3, 4, 4], [4, 4, 4, 4], 3),
                  6: ([2, 3, 5, 7, 7], [5, 5, 5, 5, 5], 4),
                  7: ([2, 3, 5, 5], [6, 6, 6, 6], 3),
                  8: ([2, 3, 5, 9, 9], [7, 7, 7, 7, 7], 4)},
}
CLOSURE_GENERATORS = {
    "all": lambda n: range(n),
    "drop two-cycle": lambda n: [i for i in range(n) if i != 1],
    "top cycle": lambda n: [n - 1],
}


@pytest.mark.parametrize("family", sorted(CLOSURE_PROFILES))
def test_generation_closure_profiles(family):
    for n, expected in CLOSURE_PROFILES[family].items():
        gens = [b_analog(i, n) for i in CLOSURE_GENERATORS[family](n)]
        rep = generation_closure(gens, n)
        assert (rep.dim_trajectory, rep.fh_profile, rep.rounds) == expected, n


def test_generation_closure_skips_repeated_pairs(monkeypatch):
    # all 6 x 6 ordered pairs of the n = 6 seed span were multiplied before;
    # the 21 unordered ones suffice
    calls = []
    mul = CentralElement.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(CentralElement, "__mul__", counting)
    rep = generation_closure([b_analog(i, 6) for i in range(6)], 6)
    assert rep.generated
    assert len(calls) < 36


# -- the closure against its closed form ----------------------------------------


def beta_set(rho):
    """The first-column hook lengths of rho, as a frozenset of bead positions."""
    return frozenset(p + len(rho) - 1 - k for k, p in enumerate(rho))


@functools.lru_cache(maxsize=None)
def _rim_hook_character(beta, mu):
    """chi at the cycle type mu of the partition with beta-set `beta` (a
    frozenset of first-column hook lengths), by the Murnaghan-Nakayama rule:
    a rim hook of length r moves a bead b to a free b - r, signed by the
    number of beads it jumps."""
    if not mu:
        return 1
    r, total = mu[0], 0
    for b in beta:
        if b >= r and b - r not in beta:
            jumped = sum(1 for x in beta if b - r < x < b)
            value = _rim_hook_character(beta - {b} | {b - r}, mu[1:])
            total += -value if jumped % 2 else value
    return total


def central_character_count(classes, n):
    """The number of distinct vectors (omega_chi(C) for C in classes) over
    the irreducible chi of S_n, omega_chi(C_lam) = |C_lam| chi(lam) / chi(1):
    the dimension of the unital subalgebra of the center that the class sums
    generate, which is the algebra of functions on the irreducibles that are
    constant where all the omega agree."""
    vectors = set()
    for rho in partitions_of(n):
        beta = beta_set(rho)
        degree = _rim_hook_character(beta, (1,) * n)
        assert degree == hook_length_dimension(rho), rho
        vectors.add(tuple(Fraction(class_size(lam) * _rim_hook_character(beta, lam),
                                   degree) for lam in classes))
    return len(vectors)


# drop-two-cycle closure at n = 12 (trajectory [11, 66, 76, 76]) never fills
# the span, so it multiplies every pair: 9.5-12.5 s in-process (Python 3.11,
# Fraction scalars, one core of a 2-vCPU VM), too slow for this suite
CLOSED_FORM_RANGES = {"all": range(2, 13), "drop two-cycle": range(2, 12)}


@pytest.mark.parametrize("family", sorted(CLOSED_FORM_RANGES))
def test_generation_closure_matches_the_closed_form(family):
    for n in CLOSED_FORM_RANGES[family]:
        gens = [b_analog(i, n) for i in CLOSURE_GENERATORS[family](n)]
        classes = [(1,) * n] + [next(iter(g.coeffs)) for g in gens]
        rep = generation_closure(gens, n, cap=n)
        assert rep.dimension == central_character_count(classes, n), (family, n)


def test_closed_form_without_the_two_cycle_at_12():
    # the closure, run apart from this suite, gave dimension 76
    classes = [(1,) * 12] + [(i + 1,) + (1,) * (11 - i)
                             for i in CLOSURE_GENERATORS["drop two-cycle"](12)]
    assert central_character_count(classes, 12) == 76


def test_drop_two_cycle_diagnostic():
    # reported, not asserted: n = 3 loses the odd classes, n = 4 still closes
    for n in (3, 4):
        gens = [b_analog(i, n) for i in range(n) if i != 1]
        rep = generation_closure(gens, n)
        print(f"drop C(2,1^(n-2)) at n={n}: {rep.render_text()}")


def test_render_central_order():
    e = CentralElement(4, {(2, 2): Rat(2), (1, 1, 1, 1): Rat(-1), (4,): Rat(1, 2)})
    assert render_central(e) == "-1*C[1,1,1,1] + 2*C[2,2] + 1/2*C[4]"


def test_fock_correspondence_over_point():
    # the one-color Fock space mirrors the class algebra: weight-n monomials
    # are exactly the partitions of n, and the part-size filtration downstairs
    # agrees with the class-sum filtration upstairs
    from fockcalc import fh_support_bound, load_preset, monomial_basis
    from fockcalc.fock import FockVector, weight
    point = load_preset("point")
    for n in range(7):
        monos = monomial_basis(n, point)
        as_partitions = sorted(tuple(s for s, _ in m) for m in monos)
        assert as_partitions == sorted(partitions_of(n))
        for mono in monos:
            lam = tuple(s for s, _ in mono)
            v = FockVector(point, {mono: Rat(1)})
            deg = fh_degree(lam) if lam else 0
            assert fh_support_bound(v, deg)
            if deg > 0:
                assert not fh_support_bound(v, deg - 1)
