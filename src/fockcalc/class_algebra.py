"""The center of the rational symmetric-group algebra under convolution.

Conjugacy-class sums C_lambda, indexed by partitions of n, form a basis of
the center.  Structure constants come from the character table of S_n by the
Frobenius formula, in exact integers: the Murnaghan-Nakayama rule gives the
characters, and each product C_lam * C_mu is one column {nu: count}, summed
over the table the first time it is read.  Tables, the weights of each lam
and their columns are memoized together in _ROW_CACHE; no permutation is
ever enumerated.

This is the desk-scale shadow of the Fock picture: partitions mirror the
colored monomials over the one-point algebra, and n minus the number of parts
is the filtration degree that the part-size filtration mirrors upstairs.
"""

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

from ._rat import exact, signed_sum
from ._linalg import RowSpan, SparseVector, axpy
from .errors import CapExceeded

DEFAULT_CAP = 9


def check_partition(lam, n=None):
    lam = tuple(lam)
    if any(p.__class__ is not int for p in lam):
        raise TypeError(f"a part of {lam} is not an int")
    if n is not None and n.__class__ is not int:
        raise TypeError(f"rank {n!r} is not an int")
    if any(p < 1 for p in lam) or list(lam) != sorted(lam, reverse=True):
        raise ValueError(f"{lam} is not a weakly decreasing positive partition")
    if n is not None and sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    return lam


@lru_cache(maxsize=None)
def partitions_of(n):
    """Partitions of n in descending lex order, as tuples."""
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return tuple(out)


def partition_count(n):
    return len(partitions_of(n))


def class_size(lam):
    """Number of permutations of cycle type lam: n! / prod k^{m_k} m_k!."""
    lam = check_partition(lam)
    n = sum(lam)
    z = 1
    for size, grp in itertools.groupby(lam):
        m = sum(1 for _ in grp)
        z *= size ** m * math.factorial(m)
    return math.factorial(n) // z


def fh_degree(lam):
    """n minus the number of parts: the filtration degree of the class sum."""
    lam = check_partition(lam)
    return sum(lam) - len(lam)


_ROW_CACHE = {}


def _mn_character(beads, rest, memo):
    """chi^rho at the cycle type `rest`, by the Murnaghan-Nakayama rule on the
    beta-set of rho, a bitmask of bead positions: a rim hook of length r is a
    bead moved from b to a free b - r, signed by the parity of the beads
    strictly between.  Only the movable beads are walked, lowest first: the
    set bits of beads & ~(beads << r) at positions >= r.  `memo` lives for
    one table build."""
    if not rest:
        return 1
    key = (beads, rest)
    total = memo.get(key)
    if total is None:
        r, tail, total = rest[0], rest[1:], 0
        movable = (beads & ~(beads << r)) >> r << r
        while movable:
            bead = movable & -movable
            movable ^= bead
            value = _mn_character(beads ^ bead ^ (bead >> r), tail, memo)
            # the beads at positions b - r + 1 .. b - 1
            if value and (beads & (bead - 1) & -(bead >> (r - 1))).bit_count() & 1:
                value = -value
            total += value
        memo[key] = total
    return total


def _character_table(n):
    """The characters of S_n as {class nu: (chi(nu) for chi)}, with the
    irreducibles chi in the order of partitions_of(n).  The table is kept in
    _ROW_CACHE under the key n, beside the rows it feeds."""
    if n in _ROW_CACHE:
        return _ROW_CACHE[n]
    parts = partitions_of(n)
    # bead k of rho, padded to n parts, sits at rho_k + n - 1 - k
    betas = [sum(1 << (p + n - 1 - k)
                 for k, p in enumerate(rho + (0,) * (n - len(rho))))
             for rho in parts]
    memo = {}
    table = {nu: tuple(_mn_character(beads, nu, memo) for beads in betas)
             for nu in parts}
    _ROW_CACHE[n] = table
    return table


class _ProductRow(dict):
    """The products C_lam * C_mu of one lam, as {mu: {nu: count}}.

    Frobenius: c = |C_lam||C_mu|/n! * sum_chi chi(lam)chi(mu)chi(nu)/chi(1),
    summed in integers over `weights` = chi(lam)*(n!/chi(1)) and divided by
    (n!)^2 once; a remainder means a wrong table and raises ArithmeticError.
    A column is summed the first time it is read: p(n) dot products of
    length p(n), nonzero int counts only.
    """

    __slots__ = ("lam", "table", "order", "weights")

    def __init__(self, lam, n):
        super().__init__()
        self.lam, self.table, self.order = lam, _character_table(n), math.factorial(n)
        self.weights = [x * (self.order // dim)
                        for x, dim in zip(self.table[lam], self.table[(1,) * n])]

    def __missing__(self, mu):
        table, order = self.table, self.order
        w_mu = [w * x for w, x in zip(self.weights, table[mu])]
        size = class_size(self.lam) * class_size(mu)
        column = {}
        for nu, chi_nu in table.items():
            count, rem = divmod(sum(map(operator.mul, w_mu, chi_nu)) * size,
                                order * order)
            if rem:
                raise ArithmeticError(f"C{self.lam} * C{mu} on C{nu} is not an "
                                      f"integer: the character table is wrong")
            if count:
                column[nu] = count
        self[mu] = column
        return column


def _product_row(lam, n):
    """The cache slot of lam: a _ProductRow whose column row[mu] is
    C_lam * C_mu as {nu: count}, filled in as products ask for them."""
    key = (n, lam)
    if key not in _ROW_CACHE:
        _ROW_CACHE[key] = _ProductRow(lam, n)
    return _ROW_CACHE[key]


class CentralElement(SparseVector):
    """Exact rational combination of class sums in the center of Q[S_n]."""

    __slots__ = ()
    n = SparseVector.space
    mismatch = "central elements of different ranks"

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {check_partition(p, n): exact(c)
                       for p, c in (coeffs or {}).items() if c}

    @classmethod
    def class_sum(cls, lam, n=None):
        lam = tuple(lam)
        return cls(n if n is not None else sum(lam), {lam: 1})

    def __mul__(self, other):
        if not isinstance(other, CentralElement):
            return self.scale(other)
        self._check(other)
        acc = {}
        for lam, ca in self.coeffs.items():
            row = _product_row(lam, self.n)
            for mu, cb in other.coeffs.items():
                axpy(acc, row[mu], ca * cb)
        return CentralElement(self.n, acc)

    def __repr__(self):
        return render_central(self)


def render_central(elem):
    """Deterministic text form: `3*C[1,1,1] + 3*C[3]` in ascending lex order."""
    return signed_sum((elem.coeffs[lam], f"C[{','.join(map(str, lam))}]")
                      for lam in sorted(elem.coeffs))


def _check_cap(n, cap):
    if n > cap:
        raise CapExceeded(f"n={n} beyond the configured cap {cap}")


def class_product(lam, mu, n, cap=DEFAULT_CAP):
    """C_lam * C_mu expanded over class sums, exact integer coefficients."""
    _check_cap(n, cap)
    lam = check_partition(lam, n)
    mu = check_partition(mu, n)
    return CentralElement(n, _product_row(lam, n)[mu])


def b_analog(i, n):
    """The class-sum shadow of the i-th monomial generator: C_{(i+1, 1^{n-i-1})}."""
    if not 0 <= i < n:
        raise IndexError(f"b_analog needs 0 <= i < n, got i={i}, n={n}")
    lam = tuple(sorted([i + 1] + [1] * (n - i - 1), reverse=True))
    return CentralElement.class_sum(lam, n)


@dataclass
class GenerationReport:
    """Result of closing a generator set under the convolution product."""

    n: int
    target: int                      # p(n)
    dimension: int = 0
    generated: bool = False
    rounds: int = 0
    dim_trajectory: list = field(default_factory=list)
    fh_profile: list = field(default_factory=list)   # max fh degree per round

    def render_text(self):
        verdict = "GENERATED" if self.generated else "NOT GENERATED"
        return (f"dim {self.dimension} / p({self.n}) {self.target} : {verdict}")


def generation_closure(generators, n, cap=DEFAULT_CAP):
    """Close span{identity} + generators under the class product.

    Each round multiplies the unordered pairs u <= v of spanning elements in
    which at least one factor came in during the last round: the center is
    commutative, and older pairs are in the span already.  What is new is
    absorbed; the dimension trajectory and the maximal filtration degree
    reached per round are recorded.  A round stops multiplying once the span
    is the full center (dimension p(n)), which is what generated means.
    """
    _check_cap(n, cap)
    generators = list(generators)
    for elem in generators:
        if elem.n != n:
            raise ValueError(f"generator of rank {elem.n} in a closure of rank {n}")
    parts = partitions_of(n)
    index = {lam: k for k, lam in enumerate(parts)}
    target = len(parts)

    span = RowSpan(target)

    def absorb(elem):
        """Add elem to the span; True when the dimension grew."""
        vec = [0] * target
        for lam, c in elem.coeffs.items():
            vec[index[lam]] = c
        return span.add(vec)

    identity = CentralElement.class_sum((1,) * n if n else (), n)
    fresh = [elem for elem in [identity] + generators if absorb(elem)]
    older = []

    report = GenerationReport(n=n, target=target)

    def max_fh():
        return max((fh_degree(parts[k]) for support in span.supports for k in support),
                   default=0)

    report.dim_trajectory.append(span.dimension)
    report.fh_profile.append(max_fh())
    while True:
        added = []
        pairs = ((u, v) for k, v in enumerate(fresh) for u in older + fresh[:k + 1])
        for u, v in pairs:
            if span.dimension == target:
                break
            prod = u * v
            if absorb(prod):
                added.append(prod)
        report.rounds += 1
        report.dim_trajectory.append(span.dimension)
        report.fh_profile.append(max_fh())
        if not added or span.dimension == target:
            break
        older += fresh
        fresh = added
    report.dimension = span.dimension
    report.generated = span.dimension == target
    return report
