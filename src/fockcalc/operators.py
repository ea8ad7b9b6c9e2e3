"""Evaluable linear operators on the Fock space.

Operators are closures over evaluation rules, not stored matrices; matrices
only materialize for adjoint computations.  Built here:

  q(n, alpha)        creation (n > 0) / annihilation (n < 0)
  virasoro(n, alpha) the normal-ordered quadratic operator twisted by the
                     diagonal: its Kunneth triples where two creations act,
                     the product alpha e_c where an annihilation of e_c acts
                     first, and int(alpha e_c e_p) where two annihilations act
  boundary_d         the derivation given on creations by
                     d(q_i(a) w) = (i L_i(a) + i(i-1)/2 q_i(K a)) w + q_i(a) dw
  derivative(f, k)   iterated bracket with d
  supercommutator    [f, g] = f g - (-1)^(parity product) g f

plus exact adjoint matrices and the relation-verification suites.  Each
suite is an entry of SUITES that lists its identity instances.  One driver
(_check_instances) records each instance's nonzero residuals, in order and on
one thread; verify_relations and nested_bracket_check both go through it.
Every suite is a row scan: a _RowInstance scans the sweep monomials in one
pass, composing the int rows of q, L_n, d and q_1^(k) and the exact ones of
commutator_expand (_Rows), and builds monomials only where a residual is
nonzero.  Each op's rows on every sweep monomial are tabled when it is
made, with the monomials whose row is not empty; a scan visits only those
of its words' first ops, and above the sweep weight each step is a kernel
call adding into the scan's sums.  The heisenberg and LL sweeps compose
each product once for an instance and its mirror.

Each operator has one definition, its public constructor: q, virasoro,
boundary_d and generators' q1_kth_bracket and apply_formal_g pick the memo
worker and table factor, and _operator builds the one kernel (_kernel),
sums it over a vector's terms and records the kernel's arguments, from
which the sweeps' rows are made (_Rows.op).  The kernel is
fock.prepend_part per class of a creation, fock.annihilate_into for an
annihilation, and the memo images of L_n, d, q_1^(k) or G_k times the ints
of the class.  The images of L_n and d on basis
monomials are memoized in per-algebra tables (fock.memo).  With D =
algebra.table_scale, the tables hold D L_n and D d, and generators' tables
D^k q_1^(k) and k! D^k G_k, all in ints on every preset: a public operator
divides its summed image by its scale once, and the rows multiply the
images by ints.  A memo call under another algebra or weight cap empties
the live tables first, so one algebra holds images at a time and a warm
table raises TruncationExceeded exactly where a cold one would.
"""

import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from . import _linalg, fock
from ._linalg import axpy
from ._rat import common_den, exact, ratio, whole
from .errors import MixedDegree, SingularGram
from .fock import FockVector, create_into, memo
from .surface import AlgebraElement, integral, mul


def _check_algebras(f, x):
    if f.algebra is not x.algebra:
        raise ValueError("operators over different algebras")


class LinearOperator:
    """A graded endomorphism of the Fock space.

    `shift` is the weight change; `degree` the cohomological degree change
    (None when the operator mixes degrees); `parity` is degree mod 2 and must
    be known to form a supercommutator.  `kernel` holds the _kernel arguments
    of an operator made by _operator, and None on any other.
    """

    __slots__ = ("algebra", "fn", "shift", "degree", "parity", "name", "kernel")

    def __init__(self, algebra, fn, shift, degree, parity, name="", kernel=None):
        self.algebra = algebra
        self.fn = fn
        self.shift = shift
        self.degree = degree
        self.parity = parity
        self.name = name
        self.kernel = kernel

    def __call__(self, v):
        _check_algebras(self, v)
        return FockVector(self.algebra, self.fn(v.terms))

    def bidegree(self):
        if self.degree is None:
            raise MixedDegree(f"operator {self.name or '?'} has mixed degree")
        return (self.shift, self.degree)

    def __add__(self, other):
        _check_algebras(self, other)

        def fn(terms, a=self.fn, b=other.fn):
            return axpy(a(terms), b(terms))

        return LinearOperator(self.algebra, fn, *_joined(self, other, _same),
                              f"({self.name}+{other.name})")

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        s = exact(scalar)

        def fn(terms, base=self.fn):
            if not s:
                return {}
            return {m: c * s for m, c in base(terms).items()}

        return LinearOperator(self.algebra, fn, self.shift, self.degree,
                              self.parity, f"{s}*{self.name}")

    __rmul__ = __mul__

    def compose(self, other):
        """self after other."""
        _check_algebras(self, other)

        def fn(terms, a=self.fn, b=other.fn):
            return a(b(terms))

        return LinearOperator(self.algebra, fn, *_joined(self, other, operator.add),
                              f"{self.name}.{other.name}")

    def __repr__(self):
        return f"<operator {self.name or hex(id(self))}>"


def _same(x, y):
    return x if x == y else None


def _joined(f, g, join):
    """(shift, degree, parity) of an operator made of f and g: join of theirs,
    None where either is None, and the parity taken mod 2."""
    shift, degree, parity = (None if x is None or y is None else join(x, y)
                             for x, y in ((f.shift, g.shift), (f.degree, g.degree),
                                          (f.parity, g.parity)))
    return shift, degree, None if parity is None else parity & 1


def zero_operator(algebra, shift=0, degree=0):
    return LinearOperator(algebra, lambda terms: {}, shift, degree, 0, "0")


def identity_operator(algebra):
    return LinearOperator(algebra, dict, 0, 0, 0, "Id")


def supercommutator(f, g):
    """[f, g] = f g - (-1)^{parity f * parity g} g f."""
    _check_algebras(f, g)
    if f.parity is None or g.parity is None:
        raise MixedDegree("supercommutator needs homogeneous parities")
    sign = -1 if (f.parity and g.parity) else 1

    def fn(terms, a=f.fn, b=g.fn):
        return axpy(a(b(terms)), b(a(terms)), -sign)

    return LinearOperator(f.algebra, fn, *_joined(f, g, operator.add),
                          f"[{f.name},{g.name}]")


# -- Heisenberg operators -----------------------------------------------------


def _grading(alpha, offset):
    """(offset + deg alpha, parity) of an operator family built on the class
    alpha.  The degree is None when alpha is zero or mixes degrees; the parity
    is None when alpha mixes parities, and 0 when alpha is zero."""
    adeg = alpha.degree()
    parities = {alpha.algebra.parities[c] for c in alpha.coeffs} or {0}
    return (None if adeg is None else offset + adeg,
            parities.pop() if len(parities) == 1 else None)


def _kernel(make, index, alpha, factor, ids):
    """(into, scale): the kernel of make at `index` on alpha, and its scale,
    `factor` times the common denominator of alpha, by which alpha is made
    whole once.  into(acc, mono, c) adds c * scale times the image of mono
    into acc, without dropping zeros.  make is None for q_index, or a memo
    worker whose table holds `factor` times its operator: _virasoro_mono and
    _boundary_mono (index None, alpha the unit) D, _q1k_mono D^k, _gk_mono
    k! D^k; an annihilation's factor is algebra.pairing_den.  Each public
    constructor picks make and factor once and records these arguments on
    its operator (_operator), from which the sweeps' rows are made too.  A
    creation keys its terms by their monomials, the others by ids.get(t, t).
    """
    algebra = alpha.algebra
    den = common_den(alpha.coeffs.values())
    ints = [(c, whole(x * den)) for c, x in alpha.coeffs.items()]
    if make is not None:
        keyed = tuple((() if index is None else (index, c), x) for c, x in ints)

        def into(acc, mono, c):
            for args, x in keyed:
                x *= c
                for t, d in make(algebra, *args, mono).items():
                    t = ids.get(t, t)
                    acc[t] = acc.get(t, 0) + x * d
    elif index > 0:
        parts, prepend = tuple((c, x * factor) for c, x in ints), fock.prepend_part

        def into(acc, mono, c):
            for color, d in parts:
                hit = prepend(mono, index, color, algebra)
                if hit is not None:
                    t = hit[0]
                    acc[t] = acc.get(t, 0) + hit[1] * d * c
    else:
        pairing, parities = algebra.pairing, algebra.parities
        weights = [whole(index * factor * sum(x * pairing[i][c] for i, x in ints))
                   for c in range(algebra.dim)]
        annihilate = fock.annihilate_into

        def into(acc, mono, c):
            annihilate(acc, ((mono, c),), -index, weights, 1, parities, ids)
    return into, den * factor


def _operator(make, index, alpha, factor, shift, offset, name):
    """The public operator of _kernel(make, index, alpha, factor), of grading
    _grading(alpha, offset), recording those arguments: it sums the kernel
    over the terms and divides by the scale once, a whole quotient of ints
    staying an int and any other going through ratio; at scale 1 the sum is
    returned as it is.  The index must be an int (None for d)."""
    if index is not None and index.__class__ is not int:
        raise TypeError(f"index {index!r} is not an int")
    into, scale = _kernel(make, index, alpha, factor, {})

    def fn(terms):
        acc = {}
        for mono, c in terms.items():
            into(acc, mono, c)
        if scale == 1:
            return acc if all(acc.values()) else {m: c for m, c in acc.items() if c}
        return {m: c // scale if c.__class__ is int and not c % scale
                else ratio(c, scale) for m, c in acc.items() if c}

    return LinearOperator(alpha.algebra, fn, shift, *_grading(alpha, offset), name,
                          (make, index, alpha, factor))


def q(n, alpha):
    """The Heisenberg operator q_n(alpha); q_0 and q_n(0) are zero maps."""
    return _operator(None, n, alpha, alpha.algebra.pairing_den if n < 0 else 1,
                     n, 2 * (n - 1), f"q_{n}({alpha!r})")


# -- Virasoro -----------------------------------------------------------------


@memo("L")
def _virasoro_mono(algebra, n, color, mono):
    """D L_n(e_color) applied to one monomial, D = algebra.table_scale.

    The orders (m, n-m) and (n-m, m) of a pair give equal terms: the diagonal
    is supersymmetric, q_m and q_{n-m} supercommute for n != 0, and L_0 is
    normal ordered.  So each unordered pair is applied once, annihilation
    first, with weight 1, and the diagonal m = n - m with weight 1/2: the
    diagonal data are read times D/2 (halved_diagonal), and the pairs are
    summed with weights 2 and 1, in ints.  Creations are fock.prepend_part
    steps added straight into the image, and no intermediate outweighs the
    larger of the monomial and the result.  An annihilation acting first takes
    a part (-m2, c) out with the factor m2 w_u(c) of the diagonal contracted
    on its right factor e_v against e_c; e_v pairs with e_c only in the
    complementary degree, so it has c's parity, and by the projection formula
    w_u(c) = (e_color e_c)_u, the product (halved_diagonal(color)[1]).  An
    annihilation acting second is one fock.annihilate_into call per removed
    part, with that row annihilated again: the weights int(e_color e_c e_p)
    over p (halved_diagonal(color)[2]).  Only a pair of creations reads the
    Kunneth triples.
    """
    w = fock.weight(mono)
    acc = {}
    parities = algebra.parities
    prepend, annihilate = fock.prepend_part, fock.annihilate_into
    for m2 in range(-w, n // 2 + 1):  # q_{m2} acts first, then q_{n-m2}
        m1 = n - m2
        if not m1 or not m2:
            continue
        scale = 1 if m1 == m2 else 2
        if m2 > 0:  # then m1 >= m2 > 0
            for u, v, t in algebra.halved_diagonal(color)[0]:
                hit = prepend(mono, m2, v, algebra)
                top = hit and prepend(hit[0], m1, u, algebra)
                if top:
                    acc[top[0]] = acc.get(top[0], 0) + scale * hit[1] * top[1] * t
            continue
        _, contracted, twice = algebra.halved_diagonal(color)
        passed_odd = 0
        for j, (s, c) in enumerate(mono):
            if s == -m2 and contracted[c]:
                sign = scale * (-m2 if parities[c] and passed_odd & 1 else m2)
                rest = mono[:j] + mono[j + 1:]
                if m1 < 0:
                    annihilate(acc, ((rest, sign),), -m1, twice[c], m1, parities, {})
                else:
                    for u, wu in contracted[c]:
                        top = prepend(rest, m1, u, algebra)
                        if top is not None:
                            acc[top[0]] = acc.get(top[0], 0) + sign * top[1] * wu
            passed_odd += parities[c]
    return {m: c for m, c in acc.items() if c}


def virasoro(n, alpha):
    """The operator L_n(alpha): (1/2) sum_m q_m q_{n-m} over the diagonal of
    alpha for n != 0, and the normal-ordered sum_{m>0} q_m q_{-m} at n = 0.

    On a weight-w vector only the window -w <= m <= n + w contributes.  The
    images of D L_n are summed and divided by D once (_operator).
    """
    return _operator(_virasoro_mono, n, alpha, alpha.algebra.table_scale, n, 2 * n,
                     f"L_{n}({alpha!r})")


# -- boundary operator and derivatives ---------------------------------------


@memo("d")
def _boundary_mono(algebra, mono):
    """D d applied to one monomial, by recursion on the leading factor."""
    if not mono:
        return {}
    (size, color), rest = mono[0], mono[1:]
    rest_terms = {rest: 1}
    # i * D L_i(e_color) rest
    acc = axpy({}, _virasoro_mono(algebra, size, color, rest), size)
    # i(i-1)/2 * D q_i(K * e_color) rest
    if size > 1:
        k_alpha = mul(algebra.canonical_class, algebra.basis_element(color))
        factor = size * (size - 1) // 2 * algebra.table_scale
        for kc, kcoeff in k_alpha.coeffs.items():
            create_into(acc, size, kc, rest_terms, whole(factor * kcoeff), algebra)
    # q_i(e_color) D d(rest)
    create_into(acc, size, color, _boundary_mono(algebra, rest), 1, algebra)
    return acc


def boundary_d(algebra):
    """The boundary operator: cup product with -1/2 the boundary class,
    realized through its creation-operator recursion.  Bidegree (0, 2).
    The images of D d are summed and divided by D once (_operator)."""
    return _operator(_boundary_mono, None, algebra.unit(), algebra.table_scale, 0, 2,
                     "d")


def derivative(f, k=1):
    """k-fold bracket with the boundary operator; bidegree gains (0, 2k)."""
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    d = boundary_d(f.algebra)
    out = f
    for _ in range(k):
        out = supercommutator(d, out)
    return out


# -- adjoints -----------------------------------------------------------------


def gram_matrix(algebra, n, i):
    """Pairing of the (n, i) piece against its complement.

    For surface-type algebras (top degree 4) the complement is (n, 4n - i);
    the one-point model pairs each piece with itself.  Returns
    (rows, row_basis, col_basis).  The form vanishes on pairs of pieces that
    are not complementary, so this block is the whole story; within it, it
    vanishes on monomials of different shapes (fock.inner_product), and such
    entries are written 0 without pairing.
    """
    comp = 4 * n - i if algebra.top_degree == 4 else i
    rows_basis = fock.monomial_basis(n, algebra, degree_filter=i)
    cols_basis = fock.monomial_basis(n, algebra, degree_filter=comp)
    col_shapes = [fock.shape(b) for b in cols_basis]
    rows = []
    for a in rows_basis:
        sa = fock.shape(a)
        rows.append([fock._pair_mono(a, {b: 1}, algebra) if sb == sa else 0
                     for b, sb in zip(cols_basis, col_shapes)])
    return rows, rows_basis, cols_basis


def operator_matrix(f, source_basis, target_basis):
    """Columns are f(source monomial) expanded over target_basis."""
    index = {m: k for k, m in enumerate(target_basis)}
    cols = []
    for mono in source_basis:
        image = f(FockVector(f.algebra, {mono: 1}))
        col = [0] * len(target_basis)
        for m, c in image.terms.items():
            if m not in index:
                raise ValueError("image leaves the expected bigraded piece")
            col[index[m]] = c
        cols.append(col)
    return cols


def adjoint_matrix(f, source):
    """Matrix of the adjoint of f on the bigraded piece `source` = (n, i).

    Satisfies (f(a), b) = (-1)^{m deg a} (a, adjoint(b)) exactly.  Returns
    (columns, source_basis, target_basis): column k expands the adjoint of the
    k-th source monomial over the target piece (n - shift, i + m - 4 shift).
    """
    algebra = f.algebra
    if algebra.top_degree != 4:
        raise SingularGram("adjoint matrices need a surface-type algebra")
    n, i = source
    shift, m = f.bidegree()
    source_basis = fock.monomial_basis(n, algebra, degree_filter=i)
    tn, ti = n - shift, i + m - 4 * shift
    if tn < 0:
        return [[] for _ in source_basis], source_basis, []
    # the test piece pairs with the target: weight tn, degree 4 tn - ti
    gram, test_basis, target_basis = gram_matrix(algebra, tn, 4 * tn - ti)
    if len(test_basis) != len(target_basis):
        raise SingularGram(f"pieces ({tn},{ti}) are not dual-dimensional")
    if not target_basis:
        return [[] for _ in source_basis], source_basis, target_basis
    f_of_a = [f(FockVector(algebra, {a: 1})) for a in test_basis]
    sign = -1 if (m & 1) and ((4 * tn - ti) & 1) else 1
    rhs_cols = []
    for b in source_basis:
        vb = FockVector(algebra, {b: 1})
        rhs_cols.append([sign * fock.inner_product(img, vb) for img in f_of_a])
    sol = _linalg.solve(gram, rhs_cols)
    if sol is None:
        raise SingularGram(f"Gram matrix on piece ({tn},{ti}) is singular")
    return sol, source_basis, target_basis


# -- relation suites ----------------------------------------------------------


@dataclass
class Discrepancy:
    params: dict
    monomial: str
    difference: str


@dataclass
class Report:
    """Outcome of a verification sweep; `passed` iff no discrepancies.

    `instance_counts` breaks `checked` down by identity instance (one entry
    per index setting, classes aggregated)."""

    suite: str
    algebra: str
    params: dict
    truncation: int
    checked: int = 0
    discrepancies: list = field(default_factory=list)
    discrepancy_count: int = 0
    instance_counts: dict = field(default_factory=dict)
    wall_time: float = 0.0
    max_kept = 25

    @property
    def passed(self):
        return self.discrepancy_count == 0

    def record(self, params, algebra, mono, diff):
        """Count the residual `diff` on `mono`; render only the kept ones."""
        self.discrepancy_count += 1
        if len(self.discrepancies) < self.max_kept:
            self.discrepancies.append(Discrepancy(
                params, fock.render_monomial(mono, algebra),
                fock.render_vector(FockVector(algebra, diff))))

    def count_instance(self, label, checked):
        """Add `checked` checks; a label of None adds no per-instance entry."""
        if label is not None:
            self.instance_counts[label] = self.instance_counts.get(label, 0) + checked
        self.checked += checked

    def to_record(self):
        return {
            "suite": self.suite,
            "algebra": self.algebra,
            "parameters": {k: str(v) for k, v in self.params.items()},
            "truncation": self.truncation,
            "checked": self.checked,
            "instance_counts": dict(sorted(self.instance_counts.items())),
            "discrepancy_count": self.discrepancy_count,
            "discrepancies": [
                {"params": {k: str(v) for k, v in d.params.items()},
                 "monomial": d.monomial, "difference": d.difference}
                for d in self.discrepancies
            ],
            "passed": self.passed,
        }

    def render_text(self):
        lines = [
            f"suite: {self.suite}",
            f"algebra: {self.algebra}",
            f"parameters: " + ", ".join(f"{k}={v}" for k, v in self.params.items()),
            f"truncation: {self.truncation}",
            f"checked: {self.checked} over {len(self.instance_counts) or 1} "
            f"identity instances",
            f"discrepancies: {self.discrepancy_count}",
        ]
        for d in self.discrepancies:
            lines.append(f"  at {d.params} on {d.monomial}: {d.difference}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _check_instances(report, algebra, instances):
    """Check every instance and fill `report`.

    Each instance hands over its nonzero residuals in monomial order, so
    discrepancies are recorded in instance order, then monomial order; its
    checks are the sweep monomials its `keys` name (all of them when None).
    Instances are made and checked one at a time, as the mirrors of
    _Rows.bracket need.  A sweep that checks nothing proves nothing: it
    raises ValueError instead of passing."""
    start = time.perf_counter()
    for instance in instances:
        for mono, diff in instance.residuals():
            report.record(instance.params, algebra, mono, diff)
        keys = instance.rows.monomials if instance.keys is None else instance.keys
        report.count_instance(instance.label, len(keys))
    if not report.checked:
        raise ValueError(f"{report.suite} on {report.algebra} checked nothing "
                         f"with {report.params} at weight {report.truncation}")
    report.wall_time = time.perf_counter() - start
    return report


def _pair(n, m, a, b):
    """The label and params of the instance (n, m, a, b) of a pair suite,
    given the classes a and b as rendered, once per sweep."""
    return f"n={n},m={m}", {"n": n, "m": m, "alpha": a, "beta": b}


def _index_range(bound):
    return [k for k in range(-bound, bound + 1) if k != 0]


class _Op:
    """One operator's rows: `table` holds those on every sweep monomial of
    the _Rows it is made for, keyed through ids, and `keys` the sweep
    monomials whose row is not empty.  Each row is `scale` times the
    operator's image, in ints for every op of _Rows.op.  The op applies
    through its one kernel, into(acc, mono, c), which adds c times its row
    on any monomial into acc; a kernel may key its terms by their monomials,
    as a creation's does (_kernel), since its table is keyed here."""

    __slots__ = ("table", "keys", "scale", "into")

    def __init__(self, rows, into, scale):
        self.scale, self.into, ids = scale, into, rows.ids
        self.table = [tuple([(ids.get(t, t), c) for t, c in rows.row(self, m)])
                      for m in rows.monomials]
        # the ints of ids, shared by every op's keys, not new ones per op
        self.keys = [k for k, row in zip(ids.values(), self.table) if row]


def _sign(p, r):
    """The Koszul sign of [f, g] for the parities p of f and r of g."""
    if p is None or r is None:
        raise MixedDegree("supercommutator needs homogeneous parities")
    return -1 if p and r else 1


class _RowInstance(NamedTuple):
    """An identity sum(c * word(v)) - central * v = 0, checked in one scan
    on the sweep monomials v of `rows` whose indices `keys` lists, or on
    every one when `keys` is None.

    A word is a tuple of ops of `rows`, its last op acting first; `lhs` and
    `rhs` hold (word, c) pairs, c the identity's exact coefficient of the
    word.  `keep` and `take` hand the images of `lhs` from the first instance
    of a slot pair to its mirror (_Rows.bracket).

    Of the checked keys, the scan visits only those on which some word's
    first op has a row, and those a mirror takes, unless the central term
    is nonzero: on any other key every image is 0.  Each step of a word
    reads a sweep monomial's row off the op's table and passes any other
    monomial to the op's kernel, which adds straight into the next step's
    sums.
    """

    label: object
    params: dict
    rows: object
    lhs: tuple
    keep: object
    take: object
    rhs: tuple
    central: object
    keys: object

    def residuals(self):
        """(v, residual) for each checked sweep monomial v, in order, on
        which the identity fails.

        Each key is checked in ints where the rows are ints, as all but the
        expansion suite's are.  A word's rows are its ops' images times
        their scales, so c is first divided by the product of those scales;
        the words are then composed with that times M, the least common
        multiple of the identity's denominators, and M times the central term
        is subtracted at the key itself.  A word with c = 0 is dropped.  A
        monomial and its residual, divided by M, are built only where a
        coefficient is left.
        """
        rows, monomials, taken, s = self.rows, self.rows.monomials, {}, 0
        if self.take is not None:
            kept_den, taken = rows.kept.pop(self.take[0])
            s = ratio(self.take[1], kept_den)
        lhs, rhs = ([(w, ratio(c, math.prod([op.scale for op in w])))
                     for w, c in words if c] for words in (self.lhs, self.rhs))
        den = common_den([c for _, c in lhs + rhs] + [self.central, s])
        s, central = whole(s * den), whole(self.central * den)
        firsts, n = [w[-1].keys for w, _ in lhs + rhs], len(monomials)
        keys = range(n) if self.keys is None else self.keys
        if not central and all(len(k) < n for k in firsts):
            hit = set(taken).union(*firsts)
            keys = sorted(hit if self.keys is None else hit.intersection(keys))
        keep = None if self.keep is None else {}
        if keep is not None:
            rows.kept[self.keep] = den, keep
        again = keep is None or rhs or central
        lhs = [(w[-1].table, w[-2:0:-1], w[0] if len(w) > 1 else None,
                whole(c * den)) for w, c in lhs]
        rhs = [(w[0].table, whole(c * den)) for w, c in rhs]
        for key in keys:
            acc = {}
            for table, middle, outer, coeff in lhs:
                terms = table[key]
                for op in middle:
                    mid, otable, into = {}, op.table, op.into
                    for k, c in terms:
                        if k.__class__ is int:
                            for t, d in otable[k]:
                                mid[t] = mid.get(t, 0) + c * d
                        else:
                            into(mid, k, c)
                    terms = [(t, c) for t, c in mid.items() if c]
                if outer is None:
                    for t, c in terms:
                        acc[t] = acc.get(t, 0) + coeff * c
                    continue
                otable, into = outer.table, outer.into
                for t, c in terms:
                    c *= coeff
                    if t.__class__ is int:
                        for u, d in otable[t]:
                            acc[u] = acc.get(u, 0) + c * d
                    else:
                        into(acc, t, c)
            if keep is not None:
                diff = tuple([(t, c) for t, c in acc.items() if c])
                if diff:
                    keep[key] = diff
            if taken:
                for t, c in taken.pop(key, ()):
                    acc[t] = acc.get(t, 0) + s * c
            for table, coeff in rhs:
                for t, c in table[key]:
                    acc[t] = acc.get(t, 0) + coeff * c
            if central:
                acc[key] = acc.get(key, 0) - central
            if again:
                diff = [(t, c) for t, c in acc.items() if c]
            if diff:
                yield monomials[key], {(monomials[t] if t.__class__ is int else t):
                                       ratio(c, den) for t, c in diff}


class _Rows:
    """One sweep's operators as rows, composed into words by the scan of each
    _RowInstance of the sweep.

    `monomials` is every basis monomial of weight <= max_weight, and _Rows
    builds it itself: so a creation on a monomial above that weight stays
    above it.  The row of an op on a monomial is its scaled image as a tuple
    of (key, c) pairs, a sweep monomial keyed by its index in `monomials`
    and any other by itself.  An op's table holds its rows on every sweep
    monomial from the moment it is made (_Op), and its keys the sweep
    monomials whose row is not empty; nothing above the sweep weight is
    kept, so the tables are bounded by the sweep weight.  Every op is made
    from an operator a public constructor returns (op), and every row,
    tabled or not, comes from that operator's kernel.  No op or kernel
    refers to the _Rows: a cycle through `ops` would keep every row alive
    until a garbage collection.
    `kept` holds, per slot pair, the images a first instance keeps until its
    mirror pops them (bracket).
    """

    def __init__(self, algebra, max_weight):
        self.algebra = algebra
        self.monomials = [mono for n in range(max_weight + 1)
                          for mono in fock.monomial_basis(n, algebra)]
        self.ids = {mono: k for k, mono in enumerate(self.monomials)}
        self.ops, self.kept = {}, {}

    def op(self, make, *args):
        """The op of the operator make(*args), where make is q, virasoro,
        boundary_d or generators' q1_kth_bracket, with its table.  It is
        keyed by make and its arguments, a class by its coefficients, so
        make is called, and the op tabled from the _kernel arguments its
        operator records, once per sweep; the op is kept in `ops`."""
        key = (make, *[frozenset(a.coeffs.items()) if a.__class__ is AlgebraElement
                       else a for a in args])
        if key not in self.ops:
            g = make(*args)
            _check_algebras(self, g)
            self.ops[key] = _Op(self, *_kernel(*g.kernel, self.ids))
        return self.ops[key]

    def row(self, op, mono):
        """op's row on a monomial: its kernel on an empty dict, as a tuple of
        the nonzero (key, c) pairs.  A creation's terms are keyed by their
        monomials, which are sweep ones only when mono is light enough."""
        got = {}
        op.into(got, mono, 1)
        return tuple([(t, c) for t, c in got.items() if c])

    def bracket(self, f, g, sign, slots=None):
        """The left side (words, keep, take) of [f, g] = f g - sign g f.

        Given the slots (first, second) of f and g in one family, each product
        of two slots is composed once per sweep: the first pair keeps its
        nonzero images, and its mirror (second, first) pops them, as
        [g, f] = -sign [f, g]; f f is composed once, times 1 - sign, so
        not at all when sign is 1.  So each instance must be checked on every
        monomial before the next is made, as _check_instances does.
        """
        first, second = slots or (0, 1)
        if first == second:
            return (((f, f), 1 - sign),), None, None
        if first > second:
            return (), None, ((second, first), -sign)
        return (((f, g), 1), ((g, f), -sign)), slots, None

    def check(self, label, params, left, rhs=(), central=0, keys=None):
        """The _RowInstance of left - sum(s * op) - central Id over the (s, op)
        pairs of `rhs`, checked on the sweep monomials of index in `keys`
        (all of them when None); `left` is a bracket or (words, None, None)."""
        return _RowInstance(label, params, self, *left,
                            tuple(((op,), -s) for s, op in rhs), central, keys)


def _slot_pairs(rows, ops, idx, classes):
    """(n, m, a, b, pair, [ops[n, i], ops[m, j]]) for a = classes[i], b =
    classes[j] in sweep order, pair their _pair, each product composed once
    (see _Rows.bracket)."""
    named = [(a, repr(a)) for a in classes]
    parities = [_grading(a, 0)[1] for a in classes]
    slots = itertools.product(range(len(classes)), repeat=2)
    for n, m, (i, j) in itertools.product(idx, idx, slots):
        (a, ra), (b, rb) = named[i], named[j]
        yield n, m, a, b, _pair(n, m, ra, rb), rows.bracket(
            ops[n, i], ops[m, j], _sign(parities[i], parities[j]), ((n, i), (m, j)))


def _heisenberg(algebra, bound, classes, max_weight):
    rows, idx = _Rows(algebra, max_weight), _index_range(bound)
    ops = {(n, i): rows.op(q, n, a) for n in idx for i, a in enumerate(classes)}
    for n, m, a, b, pair, lhs in _slot_pairs(rows, ops, idx, classes):
        central = n * integral(mul(a, b)) if n + m == 0 else 0
        yield rows.check(*pair, lhs, (), central)


def _lq(algebra, bound, classes, max_weight):
    rows, idx = _Rows(algebra, max_weight), range(-bound, bound + 1)
    named = [(a, repr(a)) for a in classes]
    for n, m, (a, ra), (b, rb) in itertools.product(idx, idx, named, named):
        if m:
            lhs = rows.bracket(rows.op(virasoro, n, a), rows.op(q, m, b),
                               _sign(_grading(a, 0)[1], _grading(b, 0)[1]))
            yield rows.check(*_pair(n, m, ra, rb), lhs,
                             ((-m, rows.op(q, n + m, mul(a, b))),))


def _ll(algebra, bound, classes, max_weight):
    rows, idx = _Rows(algebra, max_weight), range(-bound, bound + 1)
    ops = {(n, i): rows.op(virasoro, n, a) for n in idx for i, a in enumerate(classes)}
    for n, m, a, b, pair, lhs in _slot_pairs(rows, ops, idx, classes):
        ab = mul(a, b)
        central = 0
        if n + m == 0:
            central = -ratio(n ** 3 - n, 12) * integral(mul(algebra.euler, ab))
        rhs = ((n - m, rows.op(virasoro, n + m, ab)),) if n != m else ()
        yield rows.check(*pair, lhs, rhs, central)


def _qprime(algebra, bound, classes, max_weight):
    rows = _Rows(algebra, max_weight)
    d = rows.op(boundary_d, algebra)
    named = [(a, repr(a)) for a in classes]
    for n, (a, ra) in itertools.product(_index_range(bound), named):
        k_scale = n * (abs(n) - 1) // 2
        rhs = ((n, rows.op(virasoro, n, a)),)
        if k_scale:
            rhs += ((k_scale, rows.op(q, n, mul(algebra.canonical_class, a))),)
        lhs = rows.bracket(d, rows.op(q, n, a), _sign(0, _grading(a, 0)[1]))
        yield rows.check(f"n={n}", {"n": n, "alpha": ra}, lhs, rhs)


def _index_suite(instances, default_bound, even=False):
    """A suite over index settings |n|, |m| <= max_index and pairs of classes
    (the full basis by default, the even basis when `even`)."""

    def entry(algebra, max_weight, max_index, classes):
        bound = default_bound if max_index is None else max_index
        if classes is None:
            classes = (algebra.even_basis_elements() if even
                       else algebra.basis_elements())
        classes = list(classes)
        # _Rows.op keys a class by its coefficients alone
        if any(a.algebra is not algebra for a in classes):
            raise ValueError("classes over different algebras")
        return ({"max_index": bound, "classes": len(classes)},
                instances(algebra, bound, classes, max_weight))

    return entry


def _sample_colors(algebra, picks):
    """Every basis color of a small algebra, else the colors `picks` names."""
    if algebra.dim <= 4:
        return list(range(algebra.dim))
    return sorted(set(picks))


def _expansion(algebra, max_weight):
    """For each g, its op on the right, made from g.kernel with its three
    instances and not kept in rows.ops, and, per a <= 3, an op of scale 1 on
    the left whose kernel adds commutator_expand(g, a, v), one bracket oracle
    per g, on the monomials v with at least a parts, which alone are checked.
    Those rows are never made whole, so a wrong expansion is a discrepancy."""
    # generators imports this module, so it is imported at call time
    from .generators import commutator_expand, default_bracket_oracle

    rows = _Rows(algebra, max_weight)
    sample = [algebra.basis_element(c) for c in
              _sample_colors(algebra, (0, 1, algebra.dim // 2, algebra.dim - 1))]
    gs = [q(2, e) for e in sample] + [virasoro(1, e) for e in sample]
    for g in gs + [virasoro(0, algebra.unit()), boundary_d(algebra)]:
        right = _Op(rows, *_kernel(*g.kernel, rows.ids))
        oracle = default_bracket_oracle(g)
        for a in (1, 2, 3):
            def into(acc, mono, c, g=g, a=a, oracle=oracle):
                if len(mono) >= a:
                    axpy(acc, commutator_expand(g, a, mono, oracle).terms, c)

            left = ((((_Op(rows, into, 1),), 1),), None, None)
            yield rows.check(None, {"g": g.name, "a": a}, left, ((1, right),), 0,
                             [k for k, v in enumerate(rows.monomials) if len(v) >= a])


def _nested_bracket(algebra, max_weight):
    from .generators import _nested_bracket_instance

    unit = algebra.unit()
    sample = [algebra.basis_element(c) for c in _sample_colors(
        algebra, (0, 1, 2, algebra.dim // 2, algebra.dim - 1))]
    rows, named = _Rows(algebra, max_weight), [(a, repr(a)) for a in [unit] + sample]
    for k in range(4):
        tuples = [(gamma, [unit] * (k + 1)) for gamma in named]
        if k >= 1 and algebra.dim > 4:
            tuples.append((named[2], [sample[2]] + [unit] * k))
        for (gamma, name), alphas in tuples:
            yield _nested_bracket_instance(k, gamma, alphas, rows,
                                           {"k": k, "gamma": name})


# suite name -> entry(algebra, max_weight, max_index, classes), which returns
# the report parameters and an iterable of the identity instances; the
# entries of the INDEX_FREE suites take only (algebra, max_weight) and return
# the instances alone, whose parameters INDEX_FREE gives
INDEX_FREE = {"expansion": {"operators": "q_2, L_1, L_0(1), d", "a": "<=3"},
              "nested_bracket": {"k": "<=3", "tuples": "unit + basis samples"}}
SUITES = {
    "heisenberg": _index_suite(_heisenberg, 3),
    "Lq": _index_suite(_lq, 2),
    "LL": _index_suite(_ll, 2, even=True),
    "qprime": _index_suite(_qprime, 3),
    "expansion": _expansion,
    "nested_bracket": _nested_bracket,
}


def verify_relations(suite, algebra, *, max_weight, max_index=None,
                     classes=None, jobs=1):
    """Evaluate both sides of one operator identity on every basis monomial.

    suite: "heisenberg"  [q_n(a), q_m(b)] = n delta_{n+m} int(ab) Id
           "Lq"          [L_n(a), q_m(b)] = -m q_{n+m}(ab)
           "LL"          [L_n(a), L_m(b)] = (n-m) L_{n+m}(ab)
                                            - (n^3-n)/12 delta_{n+m} int(c2 ab) Id
           "qprime"      [d, q_n(a)] = n L_n(a) + n(|n|-1)/2 q_n(K a)
           "expansion"   commutator_expand(g, a, v) = g(v) for g in q_2(e),
                         L_1(e), L_0(1), d over sampled basis classes e and
                         a <= 3, on monomials v of weight >= 1 with >= a parts
           "nested_bracket"
                         the identity of nested_bracket_check for k <= 3,
                         all a_i = 1 and gamma the unit or a sampled basis
                         class; on algebras of dimension > 4 also with
                         gamma = e_1, a_1 = e_2 for k >= 1

    The first four run over |n|, |m| <= max_index (a per-suite default) and
    pairs of `classes`, which default to the full basis (even basis only for
    "LL"); "expansion" and "nested_bracket" take neither, and ValueError is
    raised when either is given.  Checks run on every basis monomial of
    weight <= max_weight; a sweep left with no check raises ValueError.

    Every sweep runs on one thread.  `jobs` is kept only so that callers
    still passing jobs=1 keep working; any other value raises ValueError.
    """
    if jobs != 1:
        raise ValueError(f"jobs={jobs!r}: sweeps run on one thread, so jobs must be 1")
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if suite in INDEX_FREE:
        if max_index is not None or classes is not None:
            raise ValueError(f"suite {suite!r} takes no max_index or classes")
        params, instances = INDEX_FREE[suite], SUITES[suite](algebra, max_weight)
    else:
        params, instances = SUITES[suite](algebra, max_weight, max_index, classes)
    report = Report(suite, algebra.name, params, max_weight)
    return _check_instances(report, algebra, instances)
