"""Expected results computed apart from the engine.

Nothing here imports fockcalc.  Counts come from generating functions over
the graded dimensions read straight from the preset JSON files, and the
symmetric-group values from closed formulas, so a fault in the engine's
basis enumeration, class walk or closure cannot also fix its own check.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

PRESET_DIR = Path(__file__).resolve().parent.parent / "src" / "fockcalc" / "presets"


def preset_doc(name):
    """The preset's JSON document, decoded without the engine's loader."""
    return json.loads((PRESET_DIR / f"{name}.json").read_text())


def basis_degrees(doc):
    return [entry["degree"] for entry in doc["basis"]]


def euler_characteristic(degrees):
    """chi = sum_k (-1)^k b_k, with b_k the number of degree-k basis classes."""
    betti = [sum(1 for d in degrees if d == k) for k in range(5)]
    return sum((-1) ** k * b for k, b in enumerate(betti))


class MonomialCounts:
    """Canonical Fock monomials counted by (weight, degree, number of parts).

    The counts are the coefficients of
        prod_{k >= 1} prod_c (1 + z x^k y^(2(k-1)+d_c))        for odd d_c
                             / (1 - z x^k y^(2(k-1)+d_c))      for even d_c
    truncated at weight `max_weight`: odd colors occur at most once per
    part size, even colors any number of times.
    """

    def __init__(self, degrees, max_weight):
        self.max_weight = max_weight
        counts = {(0, 0, 0): 1}
        for k in range(1, max_weight + 1):
            for d in degrees:
                step = (k, 2 * (k - 1) + d, 1)
                new = dict(counts)
                if d & 1:
                    for (w, g, p), c in counts.items():
                        if w + k <= max_weight:
                            key = (w + k, g + step[1], p + 1)
                            new[key] = new.get(key, 0) + c
                else:
                    # unbounded multiplicity: sweep weights upwards so that
                    # freshly added terms are extended again
                    for w in range(max_weight + 1 - k):
                        for (ww, g, p), c in [(key, v) for key, v in new.items()
                                              if key[0] == w]:
                            key = (w + k, g + step[1], p + 1)
                            new[key] = new.get(key, 0) + c
                counts = new
        self.counts = counts

    def upto(self, weight):
        return sum(c for (w, _, _), c in self.counts.items() if w <= weight)

    def piece(self, weight, degree):
        return sum(c for (w, g, _), c in self.counts.items()
                   if w == weight and g == degree)

    def by_parts(self, weight):
        out = {}
        for (w, _, p), c in self.counts.items():
            if w == weight:
                out[p] = out.get(p, 0) + c
        return out


# -- expected check counts of the verification suites --------------------------
#
# Index ranges are those documented on verify_relations: nonzero |n|, |m| <= k
# for heisenberg, n in -k..k with m nonzero for Lq, all n, m in -k..k for LL,
# nonzero n for qprime.


def heisenberg_checks(mc, weight, k, classes):
    return mc.upto(weight) * (2 * k) ** 2 * classes ** 2


def lq_checks(mc, weight, k, classes):
    return mc.upto(weight) * (2 * k + 1) * (2 * k) * classes ** 2


def ll_checks(mc, weight, k, classes):
    return mc.upto(weight) * (2 * k + 1) ** 2 * classes ** 2


def qprime_checks(mc, weight, k, classes):
    return mc.upto(weight) * (2 * k) * classes


def expansion_checks(mc, weight, dim):
    """The CLI expansion sweep: operators q_2(c), L_1(c) over its sampled
    colors plus L_0(1) and d, and a = 1..min(3, parts) per monomial of
    weight 1..W."""
    colors = dim if dim <= 4 else len({0, 1, dim // 2, dim - 1})
    operators = 2 * colors + 2
    total = 0
    for w in range(1, weight + 1):
        for parts, c in mc.by_parts(w).items():
            total += c * operators * min(3, parts)
    return total


def nested_bracket_checks(mc, weight, dim):
    """The CLI nested-bracket sweep: for k = 0..3 the all-units tuple, one
    tuple per sampled gamma, and for k >= 1 on large algebras one mixed
    tuple, each over every monomial of weight <= W."""
    sample = dim if dim <= 4 else len({0, 1, 2, dim // 2, dim - 1})
    tuples = sum(1 + sample + (1 if k >= 1 and dim > 4 else 0) for k in range(4))
    return tuples * mc.upto(weight)


def pairing_checks(mc, weight):
    """(d u, v) = (u, d v) for u in piece (n, i), v in piece (n, 4n - i - 2)."""
    total = 0
    for n in range(1, weight + 1):
        for i in range(4 * n + 1):
            total += mc.piece(n, i) * mc.piece(n, 4 * n - i - 2)
    return total


# -- generator classes ----------------------------------------------------------


def leading_coefficient(i, n):
    """Coefficient of q_(i+1)(gamma) q_1(1)^(n-i-1)|0> in G_i(gamma, n)."""
    return Fraction((-1) ** i, math.factorial(i + 1) * math.factorial(n - i - 1))


# -- the symmetric group --------------------------------------------------------


def partition_number(n):
    """p(n) from Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= m:
            sign = 1 if j & 1 else -1
            total += sign * p[m - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= m:
                total += sign * p[m - j * (3 * j + 1) // 2]
            j += 1
        p[m] = total
    return p[n]


def class_size(lam):
    """|C_lam| = n! / z_lam with z_lam = prod_k k^(m_k) m_k!."""
    z = 1
    for k in set(lam):
        m = lam.count(k)
        z *= k ** m * math.factorial(m)
    return math.factorial(sum(lam)) // z
