"""Reference paths for the row-composing relation suites.

The engine checks every suite by composing rows (operators._Rows): int rows
for the Heisenberg, Lq, LL, qprime and nested-bracket suites, and for the
expansion suite a left side whose kernel is commutator_expand.  It applies
L_n with the contracted diagonal read off the product table.  This module
keeps what they replaced, as sn_enumeration.py keeps the enumerated S_n rows:

- reference_q: q_n(alpha) through fock.create_into and fock.contract_into,
  one call per class of alpha, independent of the kernels that the engine's
  operators and rows share (operators._kernel);
- triple_virasoro_mono: L_n(e_color) on one monomial, applied triple by
  triple through those kernels in every branch;
- Instance: an identity checked one monomial at a time through closures;
- closure_record: a suite's Report.to_record() built from Instances of
  supercommutator, virasoro, reference_q and derivative maps, and for the expansion
  suite one commutator_expand call per monomial, in the suite's instance
  order, through the same check driver;
- reference_inner_product, reference_gram_matrix and reference_adjoint_matrix:
  the bilinear form paired shape-blind, every term of the left vector against
  every term of the right, where the engine pairs each term with the right
  terms of its own shape only.

They read the kernels and `mul` through the fockcalc modules at call time, so
a mutant patched there acts on the reference as it acts on the engine.
"""

import itertools
import json
import math
from typing import NamedTuple
from unittest import mock

from fockcalc import fock, generators, load_algebra, operators
from fockcalc._linalg import axpy
from fockcalc._rat import ratio
from fockcalc.generators import q1_kth_bracket
from fockcalc.operators import (
    LinearOperator,
    Report,
    _check_instances,
    _grading,
    _index_range,
    _pair,
    _sample_colors,
    boundary_d,
    derivative,
    supercommutator,
    virasoro,
)
from fockcalc.surface import integral, preset_path


def _q_kernel(n):
    """The Fock kernel and part size of q_n: creation for n > 0, annihilation
    for n <= 0, where size 0 removes no part, so q_0 is 0."""
    return (fock.create_into, n) if n > 0 else (fock.contract_into, -n)


def reference_q(n, alpha):
    """q_n(alpha) as a LinearOperator that applies the kernel of _q_kernel(n)
    once per class of alpha, times that class's coefficient."""
    algebra = alpha.algebra
    kernel, size = _q_kernel(n)

    def fn(terms):
        acc = {}
        for color, coeff in alpha.coeffs.items():
            kernel(acc, size, color, terms, coeff, algebra)
        return acc

    return LinearOperator(algebra, fn, n, *_grading(alpha, 2 * (n - 1)),
                          f"q_{n}({alpha!r})")


def triple_virasoro_mono(algebra, n, color, mono, diagonal=1):
    """L_n(e_color) on one monomial, one Kunneth triple at a time: both
    orders of each pair m != n - m with weight 2, the diagonal m = n - m with
    weight `diagonal` (1 for L itself), halved at the end."""
    w = fock.weight(mono)
    terms = {mono: 1}
    acc = {}
    triples = algebra.kunneth_triples(color)
    for m2 in range(-w, n // 2 + 1):  # q_{m2} acts first, then q_{n-m2}
        m1 = n - m2
        if not m1 or not m2:
            continue
        outer, size1 = _q_kernel(m1)
        inner_kernel, size2 = _q_kernel(m2)
        scale = diagonal if m1 == m2 else 2
        for u, v, t in triples:
            inner = {}
            inner_kernel(inner, size2, v, terms, t, algebra)
            if inner:
                outer(acc, size1, u, inner, scale, algebra)
    return {m: ratio(c, 2) for m, c in acc.items()}


def fresh_algebra(name, integral_scale=1):
    """A preset loaded anew, with empty memo tables, and its integral times
    `integral_scale`; a scaled algebra is named "<preset>*<scale>"."""
    doc = json.loads(preset_path(name).read_text())
    if integral_scale != 1:
        doc["name"] = f"{name}*{integral_scale}"
        for entry in doc["integral"]:
            entry["coeff"] = str(ratio(int(entry["coeff"]) * integral_scale))
    return load_algebra(doc)


def reference_inner_product(u, v):
    """The bilinear form with each term of u paired against all of v."""
    if u.algebra is not v.algebra:
        raise ValueError("vectors over different algebras")
    total = 0
    for mono, cu in u.terms.items():
        total += cu * fock._pair_mono(mono, v.terms, u.algebra)
    return total


def reference_gram_matrix(algebra, n, i):
    """operators.gram_matrix with every entry paired by reference_inner_product."""
    comp = 4 * n - i if algebra.top_degree == 4 else i
    rows_basis = fock.monomial_basis(n, algebra, degree_filter=i)
    cols_basis = fock.monomial_basis(n, algebra, degree_filter=comp)
    rows = [[reference_inner_product(fock.FockVector(algebra, {a: 1}),
                                     fock.FockVector(algebra, {b: 1}))
             for b in cols_basis] for a in rows_basis]
    return rows, rows_basis, cols_basis


def reference_adjoint_matrix(f, source):
    """operators.adjoint_matrix with its Gram matrix and its pairings taken
    from reference_gram_matrix and reference_inner_product."""
    with mock.patch.object(fock, "inner_product", reference_inner_product), \
            mock.patch.object(operators, "gram_matrix", reference_gram_matrix):
        return operators.adjoint_matrix(f, source)


class Instance(NamedTuple):
    """One identity lhs(v) - sum(s * rhs(v)) - central * v = 0, checked on
    every monomial v of `keys`, one at a time; never None, so the check
    driver counts `keys`.

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
    keys: list

    def residuals(self):
        """(v, residual) for each v of `keys`, in order, whose residual is
        nonzero; a residual is a {mono: c} dict."""
        for mono in self.keys:
            terms = {mono: 1}
            diff = self.lhs(terms)
            for scale, op in self.rhs:
                axpy(diff, op(terms), -scale)
            if self.central:
                axpy(diff, {mono: -self.central})
            if diff:
                yield mono, diff


def basis_upto(alg, max_weight):
    """Every basis monomial of weight <= max_weight, in sweep order."""
    return [m for n in range(max_weight + 1) for m in fock.monomial_basis(n, alg)]


def _pair_instance(n, m, a, b, lhs, rhs, central, monos):
    return Instance(*_pair(n, m, repr(a), repr(b)), lhs, rhs, central, monos)


def _heisenberg(alg, bound, classes, monos):
    idx = _index_range(bound)
    for n, m, a, b in itertools.product(idx, idx, classes, classes):
        central = n * integral(operators.mul(a, b)) if n + m == 0 else 0
        yield _pair_instance(n, m, a, b, supercommutator(reference_q(n, a), reference_q(m, b)).fn,
                             (), central, monos)


def _lq(alg, bound, classes, monos):
    idx = range(-bound, bound + 1)
    for n, m, a, b in itertools.product(idx, idx, classes, classes):
        if m:
            yield _pair_instance(n, m, a, b,
                                 supercommutator(virasoro(n, a), reference_q(m, b)).fn,
                                 ((-m, reference_q(n + m, operators.mul(a, b)).fn),), 0,
                                 monos)


def _ll(alg, bound, classes, monos):
    idx = range(-bound, bound + 1)
    for n, m, a, b in itertools.product(idx, idx, classes, classes):
        ab = operators.mul(a, b)
        central = 0
        if n + m == 0:
            central = -ratio(n ** 3 - n, 12) * integral(operators.mul(alg.euler, ab))
        rhs = ((n - m, virasoro(n + m, ab).fn),) if n != m else ()
        yield _pair_instance(n, m, a, b,
                             supercommutator(virasoro(n, a), virasoro(m, b)).fn,
                             rhs, central, monos)


def _qprime(alg, bound, classes, monos):
    for n, a in itertools.product(_index_range(bound), classes):
        k_scale = n * (abs(n) - 1) // 2
        rhs = ((n, virasoro(n, a).fn),)
        if k_scale:
            rhs += ((k_scale, reference_q(n, operators.mul(alg.canonical_class, a)).fn),)
        yield Instance(f"n={n}", {"n": n, "alpha": repr(a)},
                       derivative(reference_q(n, a), 1).fn, rhs, 0, monos)


def nested_bracket_instance(k, gamma, alphas, monos, params):
    """[..[1/k! q_1^(k)(gamma a_0), q_1(a_1)], ..., q_1(a_k)] folded as
    supercommutator maps, against (-1)^k q_{k+1}(gamma a_0 ... a_k)."""
    prod = generators.mul(gamma, alphas[0])
    lhs = q1_kth_bracket(k, prod) * ratio(1, math.factorial(k))
    for a in alphas[1:]:
        lhs = supercommutator(lhs, reference_q(1, a))
        prod = generators.mul(prod, a)
    return Instance(None, params, lhs.fn, (((-1) ** k, reference_q(k + 1, prod).fn),), 0,
                    monos)


def _nested_bracket(alg, max_weight):
    unit = alg.unit()
    sample = [alg.basis_element(c) for c in _sample_colors(
        alg, (0, 1, 2, alg.dim // 2, alg.dim - 1))]
    monos = basis_upto(alg, max_weight)
    for k in range(4):
        tuples = [(gamma, [unit] * (k + 1)) for gamma in [unit] + sample]
        if k >= 1 and alg.dim > 4:
            tuples.append((sample[1], [sample[2]] + [unit] * k))
        for gamma, alphas in tuples:
            yield nested_bracket_instance(k, gamma, alphas, monos,
                                          {"k": k, "gamma": repr(gamma)})


def _expansion(alg, max_weight):
    # one commutator_expand call per monomial, each with its own oracle
    colors = _sample_colors(alg, (0, 1, alg.dim // 2, alg.dim - 1))
    ops = [reference_q(2, alg.basis_element(c)) for c in colors]
    ops += [virasoro(1, alg.basis_element(c)) for c in colors]
    ops += [virasoro(0, alg.unit()), boundary_d(alg)]
    monos = basis_upto(alg, max_weight)
    for g in ops:
        for a in (1, 2, 3):
            def expanded(terms, g=g, a=a):
                acc = {}
                for mono, c in terms.items():
                    axpy(acc, generators.commutator_expand(g, a, mono).terms, c)
                return acc

            yield Instance(None, {"g": g.name, "a": a}, expanded, ((1, g.fn),), 0,
                           [v for v in monos if len(v) >= a])


INDEX_FREE = {"expansion": ({"operators": "q_2, L_1, L_0(1), d", "a": "<=3"}, _expansion),
              "nested_bracket": ({"k": "<=3", "tuples": "unit + basis samples"},
                                 _nested_bracket)}
INDEX_SUITES = {"heisenberg": _heisenberg, "Lq": _lq, "LL": _ll, "qprime": _qprime}


def closure_record(suite, alg, max_weight, max_index=None, classes=None):
    """Report.to_record() of `suite` from closure maps; the index suites take
    an explicit max_index and classes, expansion and nested_bracket neither."""
    if suite in INDEX_FREE:
        params, make = INDEX_FREE[suite]
        instances = make(alg, max_weight)
    else:
        params = {"max_index": max_index, "classes": len(classes)}
        instances = INDEX_SUITES[suite](alg, max_index, classes,
                                        basis_upto(alg, max_weight))
    report = Report(suite, alg.name, params, max_weight)
    return _check_instances(report, alg, instances).to_record()
