"""The center of the rational symmetric-group algebra under convolution.

Conjugacy-class sums C_lambda, indexed by partitions of n, form a basis of
the center.  Structure constants are computed by representative-and-count:
fix w of cycle type nu, walk g over the class of lambda, and bucket the cycle
type of g composed with w.  One walk over a class fills the whole row of the
multiplication table for that lambda, and rows are memoized, which keeps the
S_8 generation closure comfortable.

This is the desk-scale shadow of the Fock picture: partitions mirror the
colored monomials over the one-point algebra, and n minus the number of parts
is the filtration degree that the part-size filtration mirrors upstairs.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

from ._rat import Rat
from ._linalg import RowSpan
from .errors import CapExceeded

DEFAULT_CAP = 9


def check_partition(lam, n=None):
    lam = tuple(lam)
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


def cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)


def representative(lam, n):
    """The permutation with cycles (0..l1-1)(l1..l1+l2-1)... of type lam."""
    perm = list(range(n))
    pos = 0
    for part in lam:
        for k in range(part):
            perm[pos + k] = pos + (k + 1) % part
        pos += part
    return tuple(perm)


def permutations_of_type(lam, n):
    """All permutations of S_n with cycle type lam (each exactly once).

    Cycles are anchored at their smallest unplaced element, which makes the
    enumeration duplicate-free across equal part sizes.
    """
    lam = check_partition(lam, n)

    def rec(remaining_parts, unused, perm):
        if not remaining_parts:
            yield tuple(perm)
            return
        anchor = unused[0]
        rest = unused[1:]
        for size in sorted(set(remaining_parts), reverse=True):
            nxt = list(remaining_parts)
            nxt.remove(size)
            for tail in itertools.permutations(rest, size - 1):
                cycle = (anchor,) + tail
                for k in range(size):
                    perm[cycle[k]] = cycle[(k + 1) % size]
                leftover = [x for x in rest if x not in tail]
                yield from rec(nxt, leftover, perm)
            for k in range(size):
                perm[anchor] = anchor
        perm[anchor] = anchor

    yield from rec(list(lam), list(range(n)), list(range(n)))


_ROW_CACHE = {}


def _product_row(lam, n):
    """All products C_lam * C_mu at once: row[nu][mu] = structure constant."""
    key = (n, lam)
    if key in _ROW_CACHE:
        return _ROW_CACHE[key]
    reps = {nu: representative(nu, n) for nu in partitions_of(n)}
    row = {nu: {} for nu in reps}
    rng = range(n)
    for g in permutations_of_type(lam, n):
        for nu, w in reps.items():
            # counts pairs (g', h) in C_lam x C_mu with g' h = w, via h = g w
            mu = cycle_type(tuple(g[w[i]] for i in rng))
            bucket = row[nu]
            bucket[mu] = bucket.get(mu, 0) + 1
    _ROW_CACHE[key] = row
    return row


class CentralElement:
    """Exact rational combination of class sums in the center of Q[S_n]."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {check_partition(p, n): Rat(c)
                       for p, c in (coeffs or {}).items() if c}

    @classmethod
    def class_sum(cls, lam, n=None):
        lam = tuple(lam)
        return cls(n if n is not None else sum(lam), {lam: 1})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0) + c
        return CentralElement(self.n, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0) - c
        return CentralElement(self.n, out)

    def scale(self, scalar):
        return CentralElement(self.n, {p: c * Rat(scalar)
                                       for p, c in self.coeffs.items()})

    __rmul__ = scale

    def __mul__(self, other):
        if not isinstance(other, CentralElement):
            return self.scale(other)
        self._check(other)
        acc = {}
        for lam, ca in self.coeffs.items():
            row = _product_row(lam, self.n)
            for nu, by_mu in row.items():
                for mu, count in by_mu.items():
                    cb = other.coeffs.get(mu)
                    if cb:
                        acc[nu] = acc.get(nu, 0) + ca * cb * count
        return CentralElement(self.n, acc)

    def __eq__(self, other):
        return (isinstance(other, CentralElement) and self.n == other.n
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return render_central(self)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("central elements of different ranks")


def render_central(elem):
    """Deterministic text form: `3*C[1,1,1] + 3*C[3]` in ascending lex order."""
    if not elem.coeffs:
        return "0"
    bits = []
    for lam in sorted(elem.coeffs):
        c = elem.coeffs[lam]
        body = f"{abs(c)}*C[{','.join(map(str, lam))}]"
        if not bits:
            bits.append(body if c > 0 else f"-{body}")
        else:
            bits.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(bits)


def _check_cap(n, cap):
    if n > cap:
        raise CapExceeded(f"n={n} beyond the configured cap {cap}")


def class_product(lam, mu, n, cap=DEFAULT_CAP):
    """C_lam * C_mu expanded over class sums, exact integer coefficients."""
    _check_cap(n, cap)
    lam = check_partition(lam, n)
    mu = check_partition(mu, n)
    row = _product_row(lam, n)
    return CentralElement(n, {nu: Rat(by_mu[mu])
                              for nu, by_mu in row.items() if mu in by_mu})


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
    generator_names: list = field(default_factory=list)

    def render_text(self):
        verdict = "GENERATED" if self.generated else "NOT GENERATED"
        return (f"dim {self.dimension} / p({self.n}) {self.target} : {verdict}")


def generation_closure(generators, n, cap=DEFAULT_CAP):
    """Close span{identity} + generators under the class product.

    Each round multiplies the unordered pairs u <= v of spanning elements in
    which at least one factor came in during the last round: the center is
    commutative, and older pairs are in the span already.  What is new is
    absorbed; the dimension trajectory and the maximal filtration degree
    reached per round are recorded.  Generated means the full center
    (dimension p(n)).
    """
    _check_cap(n, cap)
    parts = partitions_of(n)
    index = {lam: k for k, lam in enumerate(parts)}
    target = len(parts)

    span = RowSpan(target)

    def absorb(elem):
        """Add elem to the span; True when the dimension grew."""
        vec = [Rat(0)] * target
        for lam, c in elem.coeffs.items():
            vec[index[lam]] = c
        return span.add(vec)

    identity = CentralElement.class_sum((1,) * n if n else (), n)
    fresh = [elem for elem in [identity] + list(generators) if absorb(elem)]
    older = []

    report = GenerationReport(n=n, target=target,
                              generator_names=[render_central(g)
                                               for g in generators])

    def max_fh():
        best = 0
        for row in span.rows:
            for k, c in enumerate(row):
                if c:
                    best = max(best, fh_degree(parts[k]))
        return best

    report.dim_trajectory.append(span.dimension)
    report.fh_profile.append(max_fh())
    while True:
        added = []
        for k, v in enumerate(fresh):
            for u in older + fresh[:k + 1]:
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
