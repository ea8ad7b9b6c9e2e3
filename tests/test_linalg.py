"""The one exact row reduction: `solve` against a Leibniz determinant."""

import copy
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc import Rat
from fockcalc._linalg import solve

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
