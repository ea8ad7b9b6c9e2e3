"""Reference paths for the row-composing relation suites.

The engine checks the Heisenberg, Lq, LL, qprime and nested-bracket suites by
composing int rows (operators._Rows), and applies L_n with the contracted
diagonal read off the product table.  This module keeps what they replaced,
as sn_enumeration.py keeps the enumerated S_n rows:

- triple_virasoro_mono: L_n(e_color) on one monomial, applied triple by
  triple through the q kernels in every branch;
- closure_record: a suite's Report.to_record() built from supercommutator,
  virasoro, q and derivative maps, in the suite's instance order, through the
  same check driver.

Both read the kernels and `mul` through the fockcalc modules at call time, so
a mutant patched there acts on the reference as it acts on the engine.
"""

import itertools
import json
import math

from fockcalc import fock, generators, load_algebra, operators
from fockcalc._rat import ratio
from fockcalc.generators import q1_kth_bracket
from fockcalc.operators import (
    Instance,
    Report,
    _basis_monomials_upto,
    _check_instances,
    _index_range,
    _pair,
    _q_kernel,
    _sample_colors,
    derivative,
    q,
    supercommutator,
    virasoro,
)
from fockcalc.surface import integral, preset_path


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


def _pair_instance(n, m, a, b, lhs, rhs, central, monos):
    return Instance(*_pair(n, m, repr(a), repr(b)), lhs, rhs, central, monos)


def _heisenberg(alg, bound, classes, monos):
    idx = _index_range(bound)
    for n, m, a, b in itertools.product(idx, idx, classes, classes):
        central = n * integral(operators.mul(a, b)) if n + m == 0 else 0
        yield _pair_instance(n, m, a, b, supercommutator(q(n, a), q(m, b)).fn,
                             (), central, monos)


def _lq(alg, bound, classes, monos):
    idx = range(-bound, bound + 1)
    for n, m, a, b in itertools.product(idx, idx, classes, classes):
        if m:
            yield _pair_instance(n, m, a, b,
                                 supercommutator(virasoro(n, a), q(m, b)).fn,
                                 ((-m, q(n + m, operators.mul(a, b)).fn),), 0, monos)


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
            rhs += ((k_scale, q(n, operators.mul(alg.canonical_class, a)).fn),)
        yield Instance(f"n={n}", {"n": n, "alpha": repr(a)},
                       derivative(q(n, a), 1).fn, rhs, 0, monos)


def nested_bracket_instance(k, gamma, alphas, monos, params):
    """[..[1/k! q_1^(k)(gamma a_0), q_1(a_1)], ..., q_1(a_k)] folded as
    supercommutator maps, against (-1)^k q_{k+1}(gamma a_0 ... a_k)."""
    prod = generators.mul(gamma, alphas[0])
    lhs = q1_kth_bracket(k, prod) * ratio(1, math.factorial(k))
    for a in alphas[1:]:
        lhs = supercommutator(lhs, q(1, a))
        prod = generators.mul(prod, a)
    return Instance(None, params, lhs.fn, (((-1) ** k, q(k + 1, prod).fn),), 0,
                    monos)


def _nested_bracket(alg, max_weight):
    unit = alg.unit()
    sample = [alg.basis_element(c) for c in _sample_colors(
        alg, (0, 1, 2, alg.dim // 2, alg.dim - 1))]
    monos = _basis_monomials_upto(alg, max_weight)
    for k in range(4):
        tuples = [(gamma, [unit] * (k + 1)) for gamma in [unit] + sample]
        if k >= 1 and alg.dim > 4:
            tuples.append((sample[1], [sample[2]] + [unit] * k))
        for gamma, alphas in tuples:
            yield nested_bracket_instance(k, gamma, alphas, monos,
                                          {"k": k, "gamma": repr(gamma)})


INDEX_SUITES = {"heisenberg": _heisenberg, "Lq": _lq, "LL": _ll, "qprime": _qprime}


def closure_record(suite, alg, max_weight, max_index=None, classes=None):
    """Report.to_record() of `suite` from closure maps; the index suites take
    an explicit max_index and classes, nested_bracket neither."""
    if suite == "nested_bracket":
        params = {"k": "<=3", "tuples": "unit + basis samples"}
        instances = _nested_bracket(alg, max_weight)
    else:
        params = {"max_index": max_index, "classes": len(classes)}
        instances = INDEX_SUITES[suite](
            alg, max_index, classes, _basis_monomials_upto(alg, max_weight))
    report = Report(suite, alg.name, params, max_weight)
    return _check_instances(report, alg, instances).to_record()
