"""Dense exact linear algebra over the rationals.

Matrices are lists of row lists of ints and Rats.  Each pivot is inverted
through `ratio`, never as `1 / x`, which would turn an int pivot into a
float.  Pivoting is deterministic (first
nonzero entry scanning down), so every derived object — dual bases, Kunneth
coefficients, closure dimensions — is byte-stable across runs.
"""

from ._rat import ratio


def solve(matrix, rhs_columns):
    """Solve A·X = B for X, with B given column-wise.

    Returns the list of solution columns, or None when A is singular; whole
    entries come back as ints.  Inputs are copied, not mutated.
    """
    n = len(matrix)
    ncols = len(rhs_columns)
    aug = [list(matrix[r]) + [col[r] for col in rhs_columns] for r in range(n)]
    for piv in range(n):
        src = next((r for r in range(piv, n) if aug[r][piv]), None)
        if src is None:
            return None
        if src != piv:
            aug[piv], aug[src] = aug[src], aug[piv]
        inv = ratio(1, aug[piv][piv])
        aug[piv] = [x * inv for x in aug[piv]]
        for r in range(n):
            if r != piv and aug[r][piv]:
                f = aug[r][piv]
                row, prow = aug[r], aug[piv]
                for c in range(piv, n + ncols):
                    row[c] -= f * prow[c]
    return [[ratio(aug[r][n + j]) for r in range(n)] for j in range(ncols)]


def invert(matrix):
    """Exact inverse, or None when singular."""
    n = len(matrix)
    eye = [[int(i == j) for i in range(n)] for j in range(n)]
    cols = solve(matrix, eye)
    if cols is None:
        return None
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def rank(rows):
    """Rank via row reduction; does not mutate the input."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rk = 0
    for col in range(ncols):
        src = next((r for r in range(rk, len(work)) if work[r][col]), None)
        if src is None:
            continue
        work[rk], work[src] = work[src], work[rk]
        inv = ratio(1, work[rk][col])
        work[rk] = [x * inv for x in work[rk]]
        for r in range(len(work)):
            if r != rk and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rk])]
        rk += 1
        if rk == len(work):
            break
    return rk


class RowSpan:
    """A growing subspace kept in reduced echelon form.

    Vectors are dense lists of ints and Rats of a fixed length.  `add`
    reduces the vector against the current rows and absorbs a new pivot if
    anything survives; the pivot scan order is the coordinate order, so
    results are reproducible.
    """

    def __init__(self, length):
        self.length = length
        self.rows = []        # echelon rows, sorted by pivot column
        self.pivots = []      # pivot column of each row

    @property
    def dimension(self):
        return len(self.rows)

    def reduce(self, vec):
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            f = vec[piv]
            if f:
                for c in range(piv, self.length):
                    vec[c] -= f * row[c]
        return vec

    def add(self, vec):
        """Insert vec into the span; returns True when the dimension grew."""
        vec = self.reduce(vec)
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
