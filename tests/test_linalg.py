"""The one exact row reduction, `solve` against a Leibniz determinant and
`RowSpan` against the dense reduction, and the arithmetic that the
sparse-vector types share through `SparseVector`."""

import copy
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockcalc import (
    AlgebraElement,
    CentralElement,
    FockVector,
    Rat,
    load_preset,
    mul,
)
from fockcalc._linalg import RowSpan, SparseVector, solve
from fockcalc._rat import ratio

SCALARS = st.builds(lambda p, q: Rat(p, q), st.integers(-3, 3), st.integers(1, 3))


def leibniz_det(matrix):
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        term = -1 if inversions & 1 else 1
        for r in range(n):
            term *= matrix[r][perm[r]]
        total += term
    return total


@st.composite
def systems(draw):
    n = draw(st.integers(1, 4))
    matrix = [draw(st.lists(SCALARS, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # make row k a multiple or a combination of other rows: singular
        k = draw(st.integers(0, n - 1))
        i, j = (draw(st.sampled_from([r for r in range(n) if r != k]))
                for _ in range(2))
        a, b = draw(SCALARS), draw(SCALARS)
        matrix[k] = [a * x + b * y for x, y in zip(matrix[i], matrix[j])]
    # entries go in as ints where whole, as the callers pass them
    matrix = [[int(x) if x == int(x) else x for x in row] for row in matrix]
    rhs = draw(st.lists(st.lists(SCALARS, min_size=n, max_size=n),
                        min_size=1, max_size=3))
    return matrix, rhs


def typed(rows):
    return [[(type(x), x) for x in row] for row in rows]


@settings(max_examples=50, deadline=None)
@given(systems())
def test_solve_matches_the_determinant(system):
    matrix, rhs = system
    before = copy.deepcopy((typed(matrix), typed(rhs)))
    cols = solve(matrix, rhs)
    assert (typed(matrix), typed(rhs)) == before
    if leibniz_det(matrix) == 0:
        assert cols is None
        return
    assert cols is not None and len(cols) == len(rhs)
    n = len(matrix)
    for x, b in zip(cols, rhs):
        assert [sum(matrix[r][k] * x[k] for k in range(n)) for r in range(n)] == b
        for entry in x:
            assert isinstance(entry, int) == (entry == int(entry)), entry
            assert isinstance(entry, (int, Rat))


class DenseRowSpan:
    """RowSpan before it kept supports: every reduction and back-substitution
    runs over all coordinates from the pivot on.  The reference."""

    def __init__(self, length):
        self.length = length
        self.rows = []
        self.pivots = []

    def add(self, vec):
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            f = vec[piv]
            if f:
                for c in range(piv, self.length):
                    vec[c] -= f * row[c]
        piv = next((c for c in range(self.length) if vec[c]), None)
        if piv is None:
            return False
        inv = ratio(1, vec[piv])
        vec = [x * inv for x in vec]
        for row in self.rows:
            f = row[piv]
            if f:
                for c in range(piv, self.length):
                    row[c] -= f * vec[c]
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, vec)
        self.pivots.insert(at, piv)
        return True


@st.composite
def sparse_vectors(draw):
    """A length and a list of mostly-zero vectors with int and Rat entries;
    some are combinations of earlier ones, so `add` also sees dependent
    vectors and rows whose later coordinates it must clear."""
    length = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), SCALARS)
    vecs = []
    for _ in range(draw(st.integers(1, 10))):
        if vecs and draw(st.booleans()):
            a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            s, t = draw(SCALARS), draw(SCALARS)
            vecs.append([s * x + t * y for x, y in zip(a, b)])
        else:
            vecs.append(draw(st.lists(entry, min_size=length, max_size=length)))
    return length, vecs


@settings(max_examples=200, deadline=None)
@given(sparse_vectors())
# the second vector's pivot is a nonzero later coordinate of the first row,
# so adding it back-substitutes into that row
@example((4, [[1, 2, 0, 3], [0, 1, Rat(1, 2), 0], [0, 0, 0, 5], [2, 5, 1, 6]]))
def test_rowspan_matches_the_dense_reduction(case):
    length, vecs = case
    span, ref = RowSpan(length), DenseRowSpan(length)
    for vec in vecs:
        before = list(vec)
        assert span.add(vec) == ref.add(vec)
        assert vec == before
        assert span.pivots == ref.pivots
        assert span.rows == ref.rows
        assert span.supports == [[c for c in range(length) if row[c]]
                                 for row in span.rows]


# -- the shared sparse-vector arithmetic -----------------------------------------

# type: (two different spaces, two keys valid in the first, mismatch message)
VECTOR_TYPES = {
    AlgebraElement: (("p2", "p1xp1"), (1, 2), "elements over different algebras"),
    FockVector: (("p2", "p1xp1"), (((1, 1),), ((2, 0), (1, 2))),
                 "vectors over different algebras"),
    CentralElement: ((3, 4), ((2, 1), (3,)), "central elements of different ranks"),
}


def spaces(cls):
    names, _, _ = VECTOR_TYPES[cls]
    return [load_preset(x) if isinstance(x, str) else x for x in names]


@pytest.mark.parametrize("cls", list(VECTOR_TYPES), ids=lambda c: c.__name__)
def test_shared_sparse_arithmetic(cls):
    space, other_space = spaces(cls)
    _, (j, k), mismatch = VECTOR_TYPES[cls]
    assert issubclass(cls, SparseVector)
    u = cls(space, {j: 1, k: 0})
    v = cls(space, {j: Rat(1, 2), k: -3})
    assert u.coeffs == {j: 1} and not u.is_zero()
    assert (u + v).coeffs == {j: Rat(3, 2), k: -3}
    assert (u - v).coeffs == {j: Rat(1, 2), k: 3}
    assert (-v).coeffs == {j: Rat(-1, 2), k: 3}
    assert v.scale(2).coeffs == {j: 1, k: -6} and 2 * v == v.scale(2)
    assert (u - u).is_zero() and v.scale(0).is_zero() and (v + -v).is_zero()
    assert cls(space, {j: 0}).is_zero() and cls(space).is_zero()
    with pytest.raises(TypeError):
        v.scale(0.5)
    assert u == cls(space, {j: 1}) and u != v and cls(space) != cls(other_space)
    with pytest.raises(ValueError, match=mismatch):
        u + cls(other_space, {})
    with pytest.raises(ValueError, match=mismatch):
        u - cls(other_space, {})
    for other in VECTOR_TYPES:
        if other is not cls:
            foreign = other(spaces(other)[0], {})
            assert cls(space) != foreign and foreign != cls(space)
            with pytest.raises(TypeError):
                u + foreign
            with pytest.raises(TypeError):
                u - foreign


def test_products_over_different_spaces(p2, p1xp1):
    with pytest.raises(ValueError, match="elements over different algebras"):
        p2.unit() * p1xp1.unit()
    with pytest.raises(ValueError, match="elements over different algebras"):
        mul(p2.unit(), p1xp1.unit())
    with pytest.raises(ValueError, match="central elements of different ranks"):
        CentralElement.class_sum((2, 1)) * CentralElement.class_sum((4,))
