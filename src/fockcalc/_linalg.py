"""Exact linear algebra over the rationals: sparse sums and row reduction.

`axpy` is the one sparse accumulate: every sum of {key: c} dicts goes
through it, from algebra products to operator images.  `SparseVector` is
the one sparse-vector type: algebra elements, Fock vectors and central
elements inherit their linear arithmetic from it.  One routine serves
every exact linear system of the package: `RowSpan` keeps a subspace in
reduced row echelon form, and `solve` is a RowSpan of the augmented rows
[A | B]; their vectors are dense lists of ints and Rats, and each echelon
row keeps its support, the list of its nonzero coordinates, so that a
reduction touches only those.  Each pivot is inverted through `ratio`,
never as `1 / x`, which would turn an int pivot into a float.  The pivot of
a row is its first nonzero coordinate, scanned in coordinate order; the
reduced echelon form is unique, so every derived object (dual bases,
Kunneth coefficients, adjoints, closure dimensions) is byte-stable across
runs.
"""

from ._rat import exact, ratio


def axpy(acc, terms, scale=1):
    """acc += scale * terms over sparse {key: c} dicts, dropping entries that
    cancel.  Returns acc.
    """
    for key, c in terms.items():
        val = acc.get(key, 0) + scale * c
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)
    return acc


class SparseVector:
    """An exact linear combination {key: c} over `space`, with no zero entries.

    Subclasses alias the space (an algebra, or the rank n) and set
    `mismatch`, the message for combining vectors over different spaces;
    combining vectors of two different types raises TypeError."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs=None):
        self.space = space
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if c}

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        self._check(other)
        return type(self)(self.space, axpy(dict(self.coeffs), other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.space, axpy(dict(self.coeffs), other.coeffs, -1))

    def __neg__(self):
        return type(self)(self.space, {k: -c for k, c in self.coeffs.items()})

    def scale(self, scalar):
        s = exact(scalar)
        return type(self)(self.space, {k: c * s for k, c in self.coeffs.items()})

    __rmul__ = scale

    def __eq__(self, other):
        return (type(other) is type(self) and self.space == other.space
                and self.coeffs == other.coeffs)

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with "
                            f"{type(other).__name__}")
        if self.space != other.space:
            raise ValueError(self.mismatch)


def solve(matrix, rhs_columns):
    """Solve A·X = B for square A, with B given column-wise.

    Returns the list of solution columns, or None when A is singular; whole
    entries come back as ints.  Inputs are copied, not mutated.
    """
    n = len(matrix)
    span = RowSpan(n + len(rhs_columns))
    for r in range(n):
        span.add(list(matrix[r]) + [col[r] for col in rhs_columns])
    if span.pivots != list(range(n)):
        return None
    return [[ratio(row[n + j]) for row in span.rows]
            for j in range(len(rhs_columns))]


class RowSpan:
    """A growing subspace kept in reduced echelon form.

    Vectors are dense lists of ints and Rats of a fixed length.  `add`
    reduces the vector against the current rows and absorbs a new pivot if
    anything survives; the pivot scan order is the coordinate order, so
    results are reproducible.  `supports[k]` lists the nonzero coordinates
    of `rows[k]` in order: reducing by a row visits only its support, and
    back-substituting a new row into the others only the new row's.
    """

    def __init__(self, length):
        self.length = length
        self.rows = []        # echelon rows, sorted by pivot column
        self.pivots = []      # pivot column of each row
        self.supports = []    # nonzero columns of each row

    @property
    def dimension(self):
        return len(self.rows)

    def reduce(self, vec):
        vec = list(vec)
        for row, piv, support in zip(self.rows, self.pivots, self.supports):
            f = vec[piv]
            if f:
                for c in support:
                    vec[c] -= f * row[c]
        return vec

    def add(self, vec):
        """Insert vec into the span; returns True when the dimension grew."""
        vec = self.reduce(vec)
        support = [c for c in range(self.length) if vec[c]]
        if not support:
            return False
        piv = support[0]
        inv = ratio(1, vec[piv])
        for c in support:
            vec[c] *= inv
        for k, row in enumerate(self.rows):
            f = row[piv]
            if f:
                for c in support:
                    row[c] -= f * vec[c]
                self.supports[k] = [c for c in sorted({*self.supports[k], *support})
                                    if row[c]]
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, vec)
        self.pivots.insert(at, piv)
        self.supports.insert(at, support)
        return True
