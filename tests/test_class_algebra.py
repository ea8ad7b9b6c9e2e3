"""Symmetric-group class algebra: sizes, products, filtration, generation."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc import CapExceeded, Rat, class_product, class_size, fh_degree
from fockcalc.class_algebra import (
    CentralElement,
    b_analog,
    cycle_type,
    generation_closure,
    partition_count,
    partitions_of,
    permutations_of_type,
    render_central,
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
