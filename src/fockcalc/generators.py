"""Generator classes on the Fock space and the machinery relating them.

Two families of classes on the weight-n piece, for 0 <= i < n and a surface
class gamma:

  B_i(gamma, n) = 1/(n-i-1)! q_{i+1}(gamma) q_1(1)^{n-i-1} |0>
  G_i(gamma, n) = 1/n! G-engine_i(gamma) applied to q_1(1)^n |0>

The formal G-engine is the cup-product operator family pinned down on the
q_1-span by its bracket with q_1:

  [G_k(gamma), q_1(beta)] = 1/k! q_1^(k)(gamma beta),    G_k(gamma)|0> = 0,

which unrolls to the recursion implemented in apply_formal_g.  Outside the
q_1-span the operator is not determined by these relations and we refuse to
guess (DomainError).

Also here: the generic expansion of g(q_{m_1}(b_1) ... q_{m_b}(b_b)|0>) into
iterated commutators (commutator_expand), the nested-bracket identity checker
nested_bracket_check, and the B-vs-G filtration comparison.
"""

import itertools
import math
from dataclasses import dataclass

from . import fock
from ._rat import Rat, RAT_ONE
from .errors import DomainError, OracleMissing
from .fock import FockVector, axpy, extend, memo
from .operators import (
    Instance,
    LinearOperator,
    Report,
    _basis_monomials_upto,
    _boundary_mono,
    _check_instances,
    q,
    supercommutator,
    zero_operator,
)
from .surface import mul


@dataclass
class GeneratorClass:
    """One of the two generator families, with its expanded Fock vector."""

    kind: str           # "B" or "G"
    i: int
    gamma: object       # AlgebraElement
    n: int
    value: FockVector

    def __repr__(self):
        return (f"{self.kind}_{self.i}({self.gamma!r}, {self.n}) = "
                f"{self.value!r}")


def vacuum_unit(algebra, n):
    """The unit class of the weight-n piece: 1/n! q_1(1)^n |0>."""
    if n < 0:
        raise ValueError("n must be >= 0")
    unit = algebra.unit()
    vec = fock.canonicalize(algebra, [(1, unit)] * n)
    return vec.scale(Rat(1, math.factorial(n)))


def b_class(i, gamma, n):
    """B_i(gamma, n); requires 0 <= i < n."""
    if not 0 <= i < n:
        raise IndexError(f"b_class needs 0 <= i < n, got i={i}, n={n}")
    algebra = gamma.algebra
    unit = algebra.unit()
    vec = fock.canonicalize(algebra, [(i + 1, gamma)] + [(1, unit)] * (n - i - 1))
    vec = vec.scale(Rat(1, math.factorial(n - i - 1)))
    return GeneratorClass("B", i, gamma, n, vec)


def q1_kth_bracket(k, alpha):
    """The operator q_1^(k)(alpha): k-fold derivative of q_1(alpha).

    q_1^(0) = q_1, q_1^(1) = L_1.  Applications on monomials are memoized per
    algebra and basis color.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    algebra = alpha.algebra
    if alpha.is_zero():
        return zero_operator(algebra, 1, None)
    keyed = tuple(((k, color), coeff) for color, coeff in alpha.coeffs.items())

    def fn(terms):
        return extend(_q1k_mono, algebra, keyed, terms)

    adeg = alpha.degree()
    degree = None if adeg is None else adeg + 2 * k
    parities = {algebra.parities[c] for c in alpha.coeffs}
    parity = parities.pop() if len(parities) == 1 else None
    return LinearOperator(algebra, fn, 1, degree, parity,
                          f"q_1^({k})({alpha!r})")


@memo("q1k")
def _q1k_mono(algebra, k, color, mono):
    if k == 0:
        hit = fock.prepend_part(mono, 1, color, algebra)
        return {} if hit is None else {hit[0]: Rat(hit[1])}
    # [d, q_1^(k-1)](mono) = d(q1^(k-1) mono) - q1^(k-1)(d mono)
    acc = {}
    for m, c in _q1k_mono(algebra, k - 1, color, mono).items():
        axpy(acc, _boundary_mono(algebra, m), c)
    for m, c in _boundary_mono(algebra, mono).items():
        axpy(acc, _q1k_mono(algebra, k - 1, color, m), -c)
    return acc


def apply_formal_g(k, gamma, v):
    """Apply the formal cup-product operator G_k(gamma) to a q_1-span vector.

    Recursion: G_k(gamma)(q_1(b) w) = 1/k! q_1^(k)(gamma b)(w)
               + (-1)^{deg gamma * deg b} q_1(b) G_k(gamma)(w),
    anchored at G_k(gamma)|0> = 0.  DomainError if any part has size >= 2.
    """
    algebra = v.algebra
    for mono in v.terms:
        if any(s != 1 for s, _ in mono):
            raise DomainError(
                "the formal G operator is only determined on the q_1 span")
    keyed = tuple(((k, gcolor), gcoeff) for gcolor, gcoeff in gamma.coeffs.items())
    return FockVector(algebra, extend(_gk_mono, algebra, keyed, v.terms))


@memo("gk")
def _gk_mono(algebra, k, gcolor, mono):
    if not mono:
        return {}
    (_, bcolor), rest = mono[0], mono[1:]
    acc = {}
    # 1/k! q_1^(k)(gamma * b) applied to the rest
    inv_kfact = Rat(1, math.factorial(k))
    for pcolor, pcoeff in algebra.mul_basis(gcolor, bcolor).items():
        axpy(acc, _q1k_mono(algebra, k, pcolor, rest), inv_kfact * pcoeff)
    # Koszul passthrough
    sign = -1 if (algebra.parities[gcolor] and algebra.parities[bcolor]) else 1
    inner = _gk_mono(algebra, k, gcolor, rest)
    if inner:
        fock.create_into(acc, 1, bcolor, inner, Rat(sign), algebra)
    return acc


def g_class(k, gamma, n):
    """G_k(gamma, n) = 1/n! G_k(gamma)(q_1(1)^n |0>); requires n >= 1."""
    if k < 0 or n < 1:
        raise IndexError(f"g_class needs k >= 0 and n >= 1, got k={k}, n={n}")
    algebra = gamma.algebra
    base = fock.canonicalize(algebra, [(1, algebra.unit())] * n)
    vec = apply_formal_g(k, gamma, base).scale(Rat(1, math.factorial(n)))
    return GeneratorClass("G", k, gamma, n, vec)


# -- the generic commutator expansion ------------------------------------------


def default_bracket_oracle(g):
    """Iterated commutators [..[g, q_{m1}(b1)], ..., q_{mi}(bi)] built by
    folding supercommutators; memoized on the selected factor content."""
    memo = {}
    algebra = g.algebra

    def oracle(selected):
        if selected not in memo:
            op = g
            for size, color in selected:
                op = supercommutator(op, q(size, algebra.basis_element(color)))
            memo[selected] = op
        return memo[selected]

    return oracle


def commutator_expand(g, a, mono, bracket_oracle=None):
    """Expand g(q_{m_1}(b_1) ... q_{m_b}(b_b)|0>) into iterated commutators.

    Commutators of depth < a are pushed all the way to the vacuum; depth-a
    commutators stop in place after their last selected factor.  Koszul signs
    track the moving operator's parity across the unselected factors it
    passes.  The result equals g applied to the monomial whenever g is fully
    evaluable; `a` must satisfy 1 <= a <= number of factors.
    """
    algebra = g.algebra
    if g.parity is None:
        raise OracleMissing("expansion needs an operator of known parity")
    parts = tuple(mono)
    b = len(parts)
    if not 1 <= a <= b:
        raise ValueError(f"need 1 <= a <= {b}, got a={a}")
    if any(s < 1 for s, _ in parts):
        raise ValueError("factors must be creation parts")
    if bracket_oracle is None:
        bracket_oracle = default_bracket_oracle(g)
    parities = [algebra.parities[c] for _, c in parts]
    s = g.parity
    vacuum = FockVector.vacuum(algebra)
    total = FockVector.zero(algebra)

    def segment_sign(selected, upto_last):
        """Koszul sign exponent from moving the bracket rightwards.

        Segment k (positions between the k-th and (k+1)-th selection) is
        crossed with parity s + sum of the first k selected parities; when
        `upto_last` the walk stops at the last selected position, otherwise it
        continues past the end.
        """
        exp = 0
        moving = s
        bounds = [-1] + list(selected)
        for kseg in range(len(selected) + (0 if upto_last else 1)):
            lo = bounds[kseg]
            hi = bounds[kseg + 1] if kseg + 1 < len(bounds) else b
            if kseg > 0:
                moving = (moving + parities[selected[kseg - 1]]) & 1
            if moving:
                for p in range(lo + 1, hi):
                    if p not in selected_set and parities[p]:
                        exp ^= 1
        return exp

    for i in range(a):
        for selected in itertools.combinations(range(b), i):
            selected_set = set(selected)
            op = bracket_oracle(tuple(parts[p] for p in selected))
            w = op(vacuum)
            if w.is_zero():
                continue
            exp = segment_sign(selected, upto_last=False)
            for p in reversed([p for p in range(b) if p not in selected_set]):
                size, color = parts[p]
                w = FockVector(algebra, _creation_terms(algebra, size, color, w))
            total = total + (w if exp == 0 else -w)

    for selected in itertools.combinations(range(b), a):
        selected_set = set(selected)
        last = selected[-1]
        op = bracket_oracle(tuple(parts[p] for p in selected))
        w = vacuum
        for p in reversed(range(last + 1, b)):
            size, color = parts[p]
            w = FockVector(algebra, _creation_terms(algebra, size, color, w))
        w = op(w)
        if w.is_zero():
            continue
        for p in reversed([p for p in range(last) if p not in selected_set]):
            size, color = parts[p]
            w = FockVector(algebra, _creation_terms(algebra, size, color, w))
        exp = segment_sign(selected, upto_last=True)
        total = total + (w if exp == 0 else -w)

    return total


def _creation_terms(algebra, size, color, v):
    acc = {}
    fock.create_into(acc, size, color, v.terms, RAT_ONE, algebra)
    return acc


# -- nested-bracket identity and filtration reports ----------------------------


def _nested_bracket_instance(k, gamma, alphas, monomials, params):
    """The identity of nested_bracket_check as one instance of the shared
    check driver, run on `monomials` and reporting `params`."""
    alphas = list(alphas)
    if len(alphas) != k + 1:
        raise ValueError(f"need k+1 = {k + 1} classes, got {len(alphas)}")
    prod = mul(gamma, alphas[0])
    lhs = q1_kth_bracket(k, prod) * Rat(1, math.factorial(k))
    for a in alphas[1:]:
        lhs = supercommutator(lhs, q(1, a))
        prod = mul(prod, a)
    return Instance(None, params, lhs.fn, (((-1) ** k, q(k + 1, prod).fn),), 0,
                    monomials)


def nested_bracket_check(k, gamma, alphas, algebra, max_weight):
    """Check the (k+1)-fold bracket identity with all q-indices equal to 1:

      [..[G_k(gamma), q_1(a_1)], ..., q_1(a_{k+1})]
          = (-1)^k q_{k+1}(gamma a_1 ... a_{k+1})

    on every basis monomial of weight <= max_weight.  The left side starts
    from [G_k(gamma), q_1(a_1)] = 1/k! q_1^(k)(gamma a_1) and folds the
    remaining brackets.
    """
    alphas = list(alphas)
    instance = _nested_bracket_instance(
        k, gamma, alphas, _basis_monomials_upto(algebra, max_weight), {"k": k})
    report = Report("nested_bracket", algebra.name,
                    {"k": k, "gamma": repr(gamma),
                     "alphas": [repr(a) for a in alphas]}, max_weight)
    return _check_instances(report, algebra, [instance])


@dataclass
class FiltrationReport:
    """B_i versus (-1)^i (i+1)! G_i: support proxy and leading coefficient."""

    i: int
    n: int
    gamma: object
    support_ok: bool            # difference supported in sum(size-1) <= i-1
    leading_coeff: object       # coefficient of q_{i+1}(gamma) q_1(1)^{n-i-1}
    expected_coeff: object
    @property
    def coeff_ok(self):
        return self.leading_coeff == self.expected_coeff


def filtration_compare(i, gamma, n):
    """Compare B_i(gamma, n) against (-1)^i (i+1)! G_i(gamma, n).

    Exact equality holds for i <= 1; for i >= 2 the difference is expected to
    live below the i-th level of the part-size filtration, while the
    coefficient of q_{i+1}(gamma) q_1(1)^{n-i-1}|0> in G_i is pinned to
    (-1)^i / ((i+1)! (n-i-1)!).  `gamma` must be a single basis class.
    """
    if not 1 <= i < n:
        raise IndexError(f"filtration_compare needs 1 <= i < n, got i={i}, n={n}")
    algebra = gamma.algebra
    if len(gamma.coeffs) != 1 or RAT_ONE not in set(gamma.coeffs.values()):
        raise DomainError("filtration_compare expects a basis class gamma")
    gcolor = next(iter(gamma.coeffs))
    bvec = b_class(i, gamma, n).value
    gvec = g_class(i, gamma, n).value
    diff = bvec - gvec.scale(Rat((-1) ** i * math.factorial(i + 1)))
    lead = tuple([(i + 1, gcolor)] + [(1, algebra.unit_index)] * (n - i - 1))
    expected = Rat((-1) ** i, math.factorial(i + 1) * math.factorial(n - i - 1))
    return FiltrationReport(
        i=i, n=n, gamma=gamma,
        support_ok=fock.fh_support_bound(diff, i - 1),
        leading_coeff=gvec.coefficient(lead),
        expected_coeff=expected,
    )
