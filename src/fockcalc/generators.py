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
guess (DomainError).  q_1^(k) is the k-fold bracket of q_1 with d, and
q_1^(1) = L_1 by d's rule on a creation, d(q_1(a) w) = L_1(a) w + q_1(a) dw.

Also here: the generic expansion of g(q_{m_1}(b_1) ... q_{m_b}(b_b)|0>) into
iterated commutators (commutator_expand), the nested-bracket identity checker
nested_bracket_check, and the B-vs-G filtration comparison.
"""

import math
from dataclasses import dataclass

from . import fock
from ._linalg import axpy
from ._rat import ratio
from .errors import DomainError, OracleMissing
from .fock import FockVector, memo
from .operators import (
    Report,
    _Rows,
    _boundary_mono,
    _check_instances,
    _grading,
    _operator,
    _sign,
    _virasoro_mono,
    q,
    supercommutator,
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
    return vec.scale(ratio(1, math.factorial(n)))


def b_class(i, gamma, n):
    """B_i(gamma, n); requires 0 <= i < n."""
    if not 0 <= i < n:
        raise IndexError(f"b_class needs 0 <= i < n, got i={i}, n={n}")
    algebra = gamma.algebra
    unit = algebra.unit()
    vec = fock.canonicalize(algebra, [(i + 1, gamma)] + [(1, unit)] * (n - i - 1))
    vec = vec.scale(ratio(1, math.factorial(n - i - 1)))
    return GeneratorClass("B", i, gamma, n, vec)


def q1_kth_bracket(k, alpha):
    """The operator q_1^(k)(alpha): k-fold derivative of q_1(alpha).

    q_1^(0) = q_1, and q_1^(1) = L_1 by d's defining rule (its images are the
    L table's).  Applications on monomials are memoized per algebra and basis
    color, as D^k q_1^(k) in ints (D = table_scale), and the summed image is
    divided by D^k once (operators._operator).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _operator(_q1k_mono, k, alpha, alpha.algebra.table_scale ** k, 1, 2 * k,
                     f"q_1^({k})({alpha!r})")


@memo("q1k")
def _q1k_mono(algebra, k, color, mono):
    """D^k q_1^(k)(e_color) applied to one monomial, D = algebra.table_scale:
    k = 1 is the L table's D L_1(e_color) image, as d's defining rule has no
    K term at i = 1, and k >= 2 the recursion [D d, D^(k-1) q_1^(k-1)]."""
    if k == 0:
        hit = fock.prepend_part(mono, 1, color, algebra)
        return {} if hit is None else {hit[0]: hit[1]}
    if k == 1:
        return _virasoro_mono(algebra, 1, color, mono)
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
    anchored at G_k(gamma)|0> = 0.  DomainError if any part has size >= 2,
    and ValueError if k < 0 or if gamma and v live over different algebras.
    The memo images of k! D^k G_k are summed and divided by k! D^k once
    (operators._operator).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    for mono in v.terms:
        if any(s != 1 for s, _ in mono):
            raise DomainError(
                "the formal G operator is only determined on the q_1 span")
    factor = math.factorial(k) * gamma.algebra.table_scale ** k
    return _operator(_gk_mono, k, gamma, factor, 0, 2 * k, f"G_{k}({gamma!r})")(v)


@memo("gk")
def _gk_mono(algebra, k, gcolor, mono):
    """k! D^k G_k(e_gcolor) applied to one monomial of the q_1 span, D =
    algebra.table_scale: the recursion reads the D^k q_1^(k) images as they
    are, so on a preset every coefficient is an int."""
    if not mono:
        return {}
    (_, bcolor), rest = mono[0], mono[1:]
    acc = {}
    # q_1^(k)(gamma * b) applied to the rest, times k! D^k
    for pcolor, pcoeff in algebra.mul_basis(gcolor, bcolor).items():
        axpy(acc, _q1k_mono(algebra, k, pcolor, rest), pcoeff)
    # Koszul passthrough
    sign = -1 if (algebra.parities[gcolor] and algebra.parities[bcolor]) else 1
    inner = _gk_mono(algebra, k, gcolor, rest)
    if inner:
        fock.create_into(acc, 1, bcolor, inner, sign, algebra)
    return acc


def g_class(k, gamma, n):
    """G_k(gamma, n) = 1/n! G_k(gamma)(q_1(1)^n |0>); requires n >= 1."""
    if k < 0 or n < 1:
        raise IndexError(f"g_class needs k >= 0 and n >= 1, got k={k}, n={n}")
    algebra = gamma.algebra
    base = fock.canonicalize(algebra, [(1, algebra.unit())] * n)
    vec = apply_formal_g(k, gamma, base).scale(ratio(1, math.factorial(n)))
    return GeneratorClass("G", k, gamma, n, vec)


# -- the generic commutator expansion ------------------------------------------


def default_bracket_oracle(g):
    """Iterated commutators [..[g, q_{m1}(b1)], ..., q_{mi}(bi)], memoized on
    the selected factor content: each is the supercommutator of its prefix's
    with one q, so a prefix and its q are made once."""
    memo = {(): g}
    algebra = g.algebra

    def oracle(selected):
        if selected not in memo:
            size, color = selected[-1]
            memo[selected] = supercommutator(oracle(selected[:-1]),
                                             q(size, algebra.basis_element(color)))
        return memo[selected]

    return oracle


def commutator_expand(g, a, mono, bracket_oracle=None):
    """Expand g(x_1 ... x_b|0>), x_j = q_{m_j}(b_j), into iterated commutators.

    One Koszul step per factor, from the left: with B the bracket of g with
    the factors selected so far,

      B x_j w = [B, x_j] w + (-1)^{|B| |x_j|} x_j B w.

    A branch stops once it has selected `a` factors or passed the last one,
    and there applies bracket_oracle(selected) to the rest x_{j+1} ... x_b|0>.
    So commutators of depth < a are pushed all the way to the vacuum, and
    depth-a commutators stop in place after their last selected factor.  The
    result equals g applied to the monomial whenever g is fully evaluable;
    `a` must be an int with 1 <= a <= number of factors.
    """
    algebra = g.algebra
    if g.parity is None:
        raise OracleMissing("expansion needs an operator of known parity")
    parts = tuple(mono)
    b = len(parts)
    if a.__class__ is not int:
        raise TypeError(f"a={a!r} is not an int")
    if not 1 <= a <= b:
        raise ValueError(f"need 1 <= a <= {b}, got a={a}")
    if any(s < 1 for s, _ in parts):
        raise ValueError("factors must be creation parts")
    if bracket_oracle is None:
        bracket_oracle = default_bracket_oracle(g)
    # tails[j] = parts[j:] applied to the vacuum
    tails = [{(): 1}]
    for size, color in reversed(parts):
        tail = {}
        fock.create_into(tail, size, color, tails[-1], 1, algebra)
        tails.append(tail)
    tails.reverse()

    def expand(j, selected, parity):
        if len(selected) == a or j == b:
            return bracket_oracle(selected)(FockVector(algebra, tails[j])).terms
        size, color = parts[j]
        odd = algebra.parities[color]
        acc = {}
        fock.create_into(acc, size, color, expand(j + 1, selected, parity),
                         -1 if parity and odd else 1, algebra)
        return axpy(acc, expand(j + 1, selected + (parts[j],), parity ^ odd))

    return FockVector(algebra, expand(0, (), g.parity))


# -- nested-bracket identity and filtration reports ----------------------------


def _nested_bracket_instance(k, gamma, alphas, rows, params):
    """The identity of nested_bracket_check as one instance of the shared
    check driver, run on the monomials of `rows` and reporting `params`.

    Its left side expands into words: [W, q_1(a)] = W q_1(a) - s q_1(a) W,
    with s the Koszul sign.  Equal words are merged before they are composed
    from rows, so with every a_i = 1 the k-fold bracket has k + 1 words."""
    if k < 0:
        raise ValueError("k must be >= 0")
    alphas = list(alphas)
    if len(alphas) != k + 1:
        raise ValueError(f"need k+1 = {k + 1} classes, got {len(alphas)}")
    prod = mul(gamma, alphas[0])
    x = rows.op(q1_kth_bracket, k, prod)
    words, parity = {(x,): 1}, _grading(prod, 0)[1]
    for a in alphas[1:]:
        y, y_parity = rows.op(q, 1, a), _grading(a, 0)[1]
        sign = _sign(parity, y_parity)
        merged = {}
        for word, c in words.items():
            axpy(merged, {word + (y,): c, (y,) + word: -sign * c})
        words, parity = merged, (parity + y_parity) & 1
        prod = mul(prod, a)
    lhs = tuple((word, ratio(c, math.factorial(k))) for word, c in words.items())
    return rows.check(None, params, (lhs, None, None),
                      (((-1) ** k, rows.op(q, k + 1, prod)),))


def nested_bracket_check(k, gamma, alphas, algebra, max_weight):
    """Check the (k+1)-fold bracket identity with all q-indices equal to 1:

      [..[G_k(gamma), q_1(a_1)], ..., q_1(a_{k+1})]
          = (-1)^k q_{k+1}(gamma a_1 ... a_{k+1})

    on every basis monomial of weight <= max_weight.  The left side starts
    from [G_k(gamma), q_1(a_1)] = 1/k! q_1^(k)(gamma a_1) and folds the
    remaining brackets.
    """
    alphas = list(alphas)
    rows = _Rows(algebra, max_weight)
    instance = _nested_bracket_instance(k, gamma, alphas, rows, {"k": k})
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
    if len(gamma.coeffs) != 1 or 1 not in gamma.coeffs.values():
        raise DomainError("filtration_compare expects a basis class gamma")
    gcolor = next(iter(gamma.coeffs))
    bvec = b_class(i, gamma, n).value
    gvec = g_class(i, gamma, n).value
    diff = bvec - gvec.scale((-1) ** i * math.factorial(i + 1))
    lead = tuple([(i + 1, gcolor)] + [(1, algebra.unit_index)] * (n - i - 1))
    expected = ratio((-1) ** i, math.factorial(i + 1) * math.factorial(n - i - 1))
    return FiltrationReport(
        i=i, n=n, gamma=gamma,
        support_ok=fock.fh_support_bound(diff, i - 1),
        leading_coeff=gvec.coefficient(lead),
        expected_coeff=expected,
    )
