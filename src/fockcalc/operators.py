"""Evaluable linear operators on the Fock space.

Operators are closures over evaluation rules, not stored matrices; matrices
only materialize for adjoint computations.  Built here:

  q(n, alpha)        creation (n > 0) / annihilation (n < 0)
  virasoro(n, alpha) the normal-ordered quadratic operator twisted by the
                     Kunneth expansion of the diagonal
  boundary_d         the derivation given on creations by
                     d(q_i(a) w) = (i L_i(a) + i(i-1)/2 q_i(K a)) w + q_i(a) dw
  derivative(f, k)   iterated bracket with d
  supercommutator    [f, g] = f g - (-1)^(parity product) g f

plus exact adjoint matrices and the relation-verification suites.  Each
suite is an entry of SUITES that lists its identity instances: label, params,
left map, right maps with scalars, central scalar and the monomials to run
on.  One driver (_check_instances) checks every instance on its monomials and
fills the Report; verify_relations and nested_bracket_check both go through
it.

Applications of the Virasoro and boundary operators on basis monomials are
memoized in per-algebra tables (fock.memo).  The tables are pure and safe to
share, and an algebra's tables are emptied when the weight cap changes, so a
warm table raises TruncationExceeded exactly where a cold one would.
"""

import itertools
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from . import _linalg, fock
from ._rat import Rat, RAT_ONE
from .errors import MixedDegree, SingularGram
from .fock import FockVector, axpy, contract_into, create_into, extend, memo
from .surface import integral, mul


class LinearOperator:
    """A graded endomorphism of the Fock space.

    `shift` is the weight change; `degree` the cohomological degree change
    (None when the operator mixes degrees); `parity` is degree mod 2 and must
    be known to form a supercommutator.
    """

    __slots__ = ("algebra", "fn", "shift", "degree", "parity", "name")

    def __init__(self, algebra, fn, shift, degree, parity, name=""):
        self.algebra = algebra
        self.fn = fn
        self.shift = shift
        self.degree = degree
        self.parity = parity
        self.name = name

    def __call__(self, v):
        return FockVector(self.algebra, self.fn(v.terms))

    def apply(self, v):
        return self(v)

    def bidegree(self):
        if self.degree is None:
            raise MixedDegree(f"operator {self.name or '?'} has mixed degree")
        return (self.shift, self.degree)

    def __add__(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("operators over different algebras")
        if self.shift != other.shift:
            shift = None
        else:
            shift = self.shift
        degree = self.degree if self.degree == other.degree else None
        parity = self.parity if self.parity == other.parity else None

        def fn(terms, a=self.fn, b=other.fn):
            return axpy(a(terms), b(terms))

        return LinearOperator(self.algebra, fn, shift, degree, parity,
                              f"({self.name}+{other.name})")

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        s = Rat(scalar)

        def fn(terms, base=self.fn):
            if not s:
                return {}
            return {m: c * s for m, c in base(terms).items()}

        return LinearOperator(self.algebra, fn, self.shift, self.degree,
                              self.parity, f"{s}*{self.name}")

    __rmul__ = __mul__

    def compose(self, other):
        """self after other."""

        def fn(terms, a=self.fn, b=other.fn):
            return a(b(terms))

        shift = None
        if self.shift is not None and other.shift is not None:
            shift = self.shift + other.shift
        degree = None
        if self.degree is not None and other.degree is not None:
            degree = self.degree + other.degree
        parity = None
        if self.parity is not None and other.parity is not None:
            parity = (self.parity + other.parity) & 1
        return LinearOperator(self.algebra, fn, shift, degree, parity,
                              f"{self.name}.{other.name}")

    def __repr__(self):
        return f"<operator {self.name or hex(id(self))}>"


def zero_operator(algebra, shift=0, degree=0):
    return LinearOperator(algebra, lambda terms: {}, shift, degree, 0, "0")


def identity_operator(algebra):
    return LinearOperator(algebra, dict, 0, 0, 0, "Id")


def supercommutator(f, g):
    """[f, g] = f g - (-1)^{parity f * parity g} g f."""
    if f.algebra is not g.algebra:
        raise ValueError("operators over different algebras")
    if f.parity is None or g.parity is None:
        raise MixedDegree("supercommutator needs homogeneous parities")
    sign = -1 if (f.parity and g.parity) else 1

    def fn(terms, a=f.fn, b=g.fn):
        return axpy(a(b(terms)), b(a(terms)), -sign)

    shift = None if f.shift is None or g.shift is None else f.shift + g.shift
    degree = None if f.degree is None or g.degree is None else f.degree + g.degree
    return LinearOperator(f.algebra, fn, shift, degree,
                          (f.parity + g.parity) & 1, f"[{f.name},{g.name}]")


# -- Heisenberg operators -----------------------------------------------------


def _q_kernel(n):
    """The Fock kernel and part size of q_n, n != 0: creation for n > 0,
    annihilation for n < 0."""
    return (create_into, n) if n > 0 else (contract_into, -n)


def q(n, alpha):
    """The Heisenberg operator q_n(alpha); q_0 is the zero operator."""
    algebra = alpha.algebra
    if n == 0 or alpha.is_zero():
        deg = alpha.degree()
        return zero_operator(algebra, n, None if deg is None else 2 * (n - 1) + deg)
    items = tuple(alpha.coeffs.items())
    kernel, size = _q_kernel(n)

    def fn(terms):
        acc = {}
        for color, coeff in items:
            kernel(acc, size, color, terms, coeff, algebra)
        return acc

    adeg = alpha.degree()
    degree = None if adeg is None else 2 * (n - 1) + adeg
    parities = {algebra.parities[c] for c in alpha.coeffs}
    parity = parities.pop() if len(parities) == 1 else None
    return LinearOperator(algebra, fn, n, degree, parity, f"q_{n}({alpha!r})")


# -- Virasoro -----------------------------------------------------------------


_HALF = Rat(1, 2)


@memo("L")
def _virasoro_mono(algebra, n, color, mono):
    """L_n(e_color) applied to one monomial.

    The orders (m, n-m) and (n-m, m) of a pair give equal terms: the diagonal
    is supersymmetric, q_m and q_{n-m} supercommute for n != 0, and L_0 is
    normal ordered.  So each unordered pair is applied once, annihilation
    first, with weight 1, and the diagonal m = n - m with weight 1/2.  No
    intermediate outweighs the larger of the monomial and the result.
    """
    w = fock.weight(mono)
    terms = {mono: RAT_ONE}
    acc = {}
    triples = algebra.kunneth_triples(color)
    for m2 in range(-w, n // 2 + 1):  # q_{m2} acts first, then q_{n-m2}
        m1 = n - m2
        if not m1 or not m2:
            continue
        outer, size1 = _q_kernel(m1)
        inner_kernel, size2 = _q_kernel(m2)
        scale = _HALF if m1 == m2 else RAT_ONE
        for u, v, t in triples:
            inner = {}
            inner_kernel(inner, size2, v, terms, t, algebra)
            if inner:
                outer(acc, size1, u, inner, scale, algebra)
    return acc


def virasoro(n, alpha):
    """The operator L_n(alpha): (1/2) sum_m q_m q_{n-m} over the diagonal of
    alpha for n != 0, and the normal-ordered sum_{m>0} q_m q_{-m} at n = 0.

    On a weight-w vector only the window -w <= m <= n + w contributes.
    """
    algebra = alpha.algebra
    keyed = tuple(((n, color), coeff) for color, coeff in alpha.coeffs.items())

    def fn(terms):
        return extend(_virasoro_mono, algebra, keyed, terms)

    adeg = alpha.degree()
    degree = None if adeg is None else 2 * n + adeg
    parities = {algebra.parities[c] for c in alpha.coeffs}
    parity = parities.pop() if len(parities) == 1 else (0 if alpha.is_zero() else None)
    return LinearOperator(algebra, fn, n, degree, parity, f"L_{n}({alpha!r})")


# -- boundary operator and derivatives ---------------------------------------


@memo("d")
def _boundary_mono(algebra, mono):
    """d applied to one monomial, by recursion on the leading factor."""
    if not mono:
        return {}
    (size, color), rest = mono[0], mono[1:]
    rest_terms = {rest: RAT_ONE}
    # i * L_i(e_color) rest
    acc = axpy({}, _virasoro_mono(algebra, size, color, rest), size)
    # i(i-1)/2 * q_i(K * e_color) rest
    if size > 1:
        k_alpha = mul(algebra.canonical_class, algebra.basis_element(color))
        factor = Rat(size * (size - 1), 2)
        for kc, kcoeff in k_alpha.coeffs.items():
            create_into(acc, size, kc, rest_terms, factor * kcoeff, algebra)
    # q_i(e_color) d(rest)
    create_into(acc, size, color, _boundary_mono(algebra, rest), RAT_ONE, algebra)
    return acc


def boundary_d(algebra):
    """The boundary operator: cup product with -1/2 the boundary class,
    realized through its creation-operator recursion.  Bidegree (0, 2)."""

    def fn(terms):
        return extend(_boundary_mono, algebra, (((), None),), terms)

    return LinearOperator(algebra, fn, 0, 2, 0, "d")


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
    are not complementary, so this block is the whole story.
    """
    comp = 4 * n - i if algebra.top_degree == 4 else i
    rows_basis = fock.monomial_basis(n, algebra, degree_filter=i)
    cols_basis = fock.monomial_basis(n, algebra, degree_filter=comp)
    rows = []
    for a in rows_basis:
        u = FockVector(algebra, {a: RAT_ONE})
        rows.append([fock.inner_product(u, FockVector(algebra, {b: RAT_ONE}))
                     for b in cols_basis])
    return rows, rows_basis, cols_basis


def operator_matrix(f, source_basis, target_basis):
    """Columns are f(source monomial) expanded over target_basis."""
    index = {m: k for k, m in enumerate(target_basis)}
    cols = []
    for mono in source_basis:
        image = f(FockVector(f.algebra, {mono: RAT_ONE}))
        col = [Rat(0)] * len(target_basis)
        for m, c in image.terms.items():
            if m not in index:
                raise ValueError("image leaves the expected bigraded piece")
            col[index[m]] = c
        cols.append(col)
    return cols


def adjoint_matrix(f, source, truncation=None):
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
    target_basis = fock.monomial_basis(tn, algebra, degree_filter=ti)
    # test piece A pairs with the target: weight tn, degree 4 tn - ti
    test_basis = fock.monomial_basis(tn, algebra, degree_filter=4 * tn - ti)
    if len(test_basis) != len(target_basis):
        raise SingularGram(f"pieces ({tn},{ti}) are not dual-dimensional")
    if not target_basis:
        return [[] for _ in source_basis], source_basis, target_basis
    gram = []
    f_of_a = []
    for a in test_basis:
        va = FockVector(algebra, {a: RAT_ONE})
        gram.append([fock.inner_product(va, FockVector(algebra, {t: RAT_ONE}))
                     for t in target_basis])
        f_of_a.append(f(va))
    sign = -1 if (m & 1) and ((4 * tn - ti) & 1) else 1
    rhs_cols = []
    for b in source_basis:
        vb = FockVector(algebra, {b: RAT_ONE})
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

    def record(self, params, mono_text, diff_text):
        self.discrepancy_count += 1
        if len(self.discrepancies) < self.max_kept:
            self.discrepancies.append(Discrepancy(params, mono_text, diff_text))

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


class Instance(NamedTuple):
    """One identity lhs(v) - sum(s * rhs(v)) - central * v = 0, checked on
    every v in `monomials`.

    `lhs` and the maps in `rhs` (pairs (s, map)) take {mono: c} terms and
    return a fresh dict, as LinearOperator.fn does.  Checks are counted under
    `label` in Report.instance_counts, or only in Report.checked when the
    label is None; `params` go with each discrepancy.
    """

    label: object
    params: dict
    lhs: object
    rhs: tuple
    central: object
    monomials: list


def _basis_monomials_upto(algebra, max_weight):
    out = []
    for n in range(max_weight + 1):
        out.extend(fock.monomial_basis(n, algebra))
    return out


def _run_tasks(tasks, run_task, jobs):
    """Evaluate run_task over the identity instances, optionally on a thread
    pool.  Results come back in task order, so reports are identical for any
    worker count; with one worker they are made lazily, one task at a time.
    Workers only read shared immutable data and fill pure memo caches, which
    tolerates concurrent writes."""
    if jobs and jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_task, tasks))
    return map(run_task, tasks)


def _check_instances(report, algebra, instances, jobs=1):
    """Check every instance on each of its monomials and fill `report`.

    Discrepancies are recorded in instance order, then monomial order, so
    the report is the same for any `jobs`."""
    start = time.perf_counter()

    def run(instance):
        lhs, rhs, central = instance.lhs, instance.rhs, instance.central
        witnesses = []
        for mono in instance.monomials:
            terms = {mono: RAT_ONE}
            diff = lhs(terms)
            for scale, op in rhs:
                axpy(diff, op(terms), -scale)
            if central:
                axpy(diff, {mono: -central})
            if diff:
                witnesses.append((mono, diff))
        return instance.label, instance.params, len(instance.monomials), witnesses

    for label, params, checked, witnesses in _run_tasks(instances, run, jobs):
        report.count_instance(label, checked)
        for mono, diff in witnesses:
            report.record(params, fock.render_monomial(mono, algebra),
                          fock.render_vector(FockVector(algebra, diff)))
    report.wall_time = time.perf_counter() - start
    return report


def _heis_creation_fast(algebra, n, ca, m, cb, sign):
    """The map of [q_n(e_ca), q_m(e_cb)] for n, m > 0, without dict churn:
    each order of the two prepends yields at most one signed monomial."""
    prepend = fock.prepend_part

    def fn(terms):
        acc = {}
        for mono, c in terms.items():
            hit = prepend(mono, m, cb, algebra)
            left = hit and prepend(hit[0], n, ca, algebra)
            if left:
                left = (left[0], left[1] * hit[1])
            hit = prepend(mono, n, ca, algebra)
            right = hit and prepend(hit[0], m, cb, algebra)
            if right:
                right = (right[0], -sign * right[1] * hit[1])
            if left and right and left[0] == right[0] and left[1] + right[1] == 0:
                continue
            for term in (left, right):
                if term:
                    axpy(acc, {term[0]: c * term[1]})
        return acc

    return fn


def _pair_instance(n, m, a, b, lhs, rhs, central, monomials):
    return Instance(f"n={n},m={m}",
                    {"n": n, "m": m, "alpha": repr(a), "beta": repr(b)},
                    lhs, rhs, central, monomials)


def _index_range(bound):
    return [k for k in range(-bound, bound + 1) if k != 0]


def _heisenberg(algebra, bound, classes, monomials):
    idx = _index_range(bound)
    basis = all(len(a.coeffs) == 1 and RAT_ONE in a.coeffs.values()
                for a in classes)
    for n, m, a, b in itertools.product(idx, idx, classes, classes):
        if basis and n > 0 and m > 0:
            (ca,), (cb,) = a.coeffs, b.coeffs
            sign = -1 if algebra.parities[ca] and algebra.parities[cb] else 1
            lhs = _heis_creation_fast(algebra, n, ca, m, cb, sign)
        else:
            lhs = supercommutator(q(n, a), q(m, b)).fn
        central = n * integral(mul(a, b)) if n + m == 0 else 0
        yield _pair_instance(n, m, a, b, lhs, (), central, monomials)


def _lq(algebra, bound, classes, monomials):
    idx = range(-bound, bound + 1)
    for n, m, a, b in itertools.product(idx, idx, classes, classes):
        if m:
            yield _pair_instance(n, m, a, b,
                                 supercommutator(virasoro(n, a), q(m, b)).fn,
                                 ((-m, q(n + m, mul(a, b)).fn),), 0, monomials)


def _ll(algebra, bound, classes, monomials):
    idx = range(-bound, bound + 1)
    for n, m, a, b in itertools.product(idx, idx, classes, classes):
        ab = mul(a, b)
        central = 0
        if n + m == 0:
            central = -Rat(n ** 3 - n, 12) * integral(mul(algebra.euler, ab))
        rhs = ((n - m, virasoro(n + m, ab).fn),) if n != m else ()
        yield _pair_instance(n, m, a, b,
                             supercommutator(virasoro(n, a), virasoro(m, b)).fn,
                             rhs, central, monomials)


def _qprime(algebra, bound, classes, monomials):
    for n, a in itertools.product(_index_range(bound), classes):
        k_scale = Rat(n * (abs(n) - 1), 2)
        rhs = ((n, virasoro(n, a).fn),)
        if k_scale:
            rhs += ((k_scale, q(n, mul(algebra.canonical_class, a)).fn),)
        yield Instance(f"n={n}", {"n": n, "alpha": repr(a)},
                       derivative(q(n, a), 1).fn, rhs, 0, monomials)


def _index_suite(instances, default_bound, even=False):
    """A suite over index settings |n|, |m| <= max_index and pairs of classes
    (the full basis by default, the even basis when `even`)."""

    def entry(algebra, max_weight, max_index, classes):
        bound = default_bound if max_index is None else max_index
        if classes is None:
            classes = (algebra.even_basis_elements() if even
                       else algebra.basis_elements())
        classes = list(classes)
        monomials = _basis_monomials_upto(algebra, max_weight)
        return ({"max_index": bound, "classes": len(classes)},
                instances(algebra, bound, classes, monomials))

    return entry


def _sample_colors(algebra, picks):
    """Every basis color of a small algebra, else the colors `picks` names."""
    if algebra.dim <= 4:
        return list(range(algebra.dim))
    return sorted(set(picks))


def _expansion(algebra, max_weight, max_index, classes):
    # generators imports this module, so it is imported at call time
    from .generators import commutator_expand

    colors = _sample_colors(algebra, (0, 1, algebra.dim // 2, algebra.dim - 1))
    ops = [q(2, algebra.basis_element(c)) for c in colors]
    ops += [virasoro(1, algebra.basis_element(c)) for c in colors]
    ops += [virasoro(0, algebra.unit()), boundary_d(algebra)]
    monomials = _basis_monomials_upto(algebra, max_weight)
    instances = []
    for g in ops:
        for a in (1, 2, 3):
            def expanded(terms, g=g, a=a):
                acc = {}
                for mono, c in terms.items():
                    axpy(acc, commutator_expand(g, a, mono).terms, c)
                return acc

            instances.append(Instance(None, {"g": g.name, "a": a}, expanded,
                                      ((1, g.fn),), 0,
                                      [v for v in monomials if len(v) >= a]))
    return {"operators": "q_2, L_1, L_0(1), d", "a": "<=3"}, instances


def _nested_bracket(algebra, max_weight, max_index, classes):
    from .generators import _nested_bracket_instance

    unit = algebra.unit()
    sample = [algebra.basis_element(c) for c in _sample_colors(
        algebra, (0, 1, 2, algebra.dim // 2, algebra.dim - 1))]
    monomials = _basis_monomials_upto(algebra, max_weight)
    instances = []
    for k in range(4):
        tuples = [(gamma, [unit] * (k + 1)) for gamma in [unit] + sample]
        if k >= 1 and algebra.dim > 4:
            tuples.append((sample[1], [sample[2]] + [unit] * k))
        instances += [_nested_bracket_instance(k, gamma, alphas, monomials,
                                               {"k": k, "gamma": repr(gamma)})
                      for gamma, alphas in tuples]
    return {"k": "<=3", "tuples": "unit + basis samples"}, instances


# suite name -> entry(algebra, max_weight, max_index, classes), which returns
# the report parameters and an iterable of the identity instances
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
    "LL"); "expansion" and "nested_bracket" ignore both.  Checks run on every
    basis monomial of weight <= max_weight.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    params, instances = SUITES[suite](algebra, max_weight, max_index, classes)
    report = Report(suite, algebra.name, params, max_weight)
    return _check_instances(report, algebra, instances, jobs)
