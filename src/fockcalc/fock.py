"""The bigraded Fock space over a surface algebra.

A basis monomial is a product of creation parts q_size(color) applied to the
vacuum, stored as a tuple of (size, color-index) pairs in canonical order:
sizes weakly decreasing, colors weakly increasing among equal sizes.  Parts
with odd-degree colors anticommute, so reordering carries a Koszul sign and a
repeated odd (size, color) pair kills the monomial.

Weight of a monomial is the sum of part sizes (which Hilbert scheme it lives
on); cohomological degree is sum(2*(size-1) + deg color).

The kernels of every operator step are here: prepend_part inserts one
creation part, and annihilate_into walks the parts an annihilation removes;
create_into and contract_into apply them over {mono: c} terms.  memo keeps
the per-monomial images of the operator workers in the tables of one
algebra at a time, under one weight cap.
"""

import functools

from ._linalg import SparseVector
from ._rat import signed_sum
from .errors import InvalidPart, TruncationExceeded

# Global cap on monomial weight: computations that climb past this raise
# TruncationExceeded instead of silently dropping terms.
_MAX_WEIGHT = 64
# (the live algebra's memo tables, the cap they were filled under); see memo
_LIVE = ({}, None)


def max_weight():
    return _MAX_WEIGHT


def set_max_weight(n):
    """Set the global weight cap, an int >= 0; returns the previous value."""
    global _MAX_WEIGHT
    if n.__class__ is not int:
        raise TypeError(f"weight cap {n!r} is not an int")
    if n < 0:
        raise ValueError(f"weight cap {n} is negative")
    prev, _MAX_WEIGHT = _MAX_WEIGHT, n
    return prev


def weight(mono):
    return sum(p[0] for p in mono)


def degree(mono, algebra):
    degs = algebra.degrees
    return sum(2 * (s - 1) + degs[c] for s, c in mono)


def sort_key(mono):
    """Graded-lex key: weight, then partition (large parts first), then colors."""
    return (weight(mono), tuple((-s, c) for s, c in mono))


def prepend_part(mono, size, color, algebra):
    """Insert one creation part into a canonical monomial.

    Returns (monomial, sign) or None when an odd part collides with itself.
    `mono` must be canonical: its part sizes weakly decrease, so its weight
    is at most len(mono) times its first size, and the weight is summed for
    the cap check only when that bound leaves the cap.
    """
    if size < 1:
        raise InvalidPart(f"part size {size} < 1")
    if (size + (len(mono) * mono[0][0] if mono else 0) > _MAX_WEIGHT
            and weight(mono) + size > _MAX_WEIGHT):
        raise TruncationExceeded(
            f"monomial weight would exceed the cap {_MAX_WEIGHT}")
    parities = algebra.parities
    odd = parities[color]
    pos = 0
    crossings = 0
    for s, c in mono:
        if s > size or (s == size and c < color):
            if odd and parities[c]:
                crossings += 1
            pos += 1
        else:
            break
    if odd and pos < len(mono) and mono[pos] == (size, color):
        return None
    new = mono[:pos] + ((size, color),) + mono[pos:]
    return new, (-1 if crossings & 1 else 1)


def create_into(acc, size, color, vec_terms, coeff, algebra):
    """acc += coeff * q_size(e_color) applied to {mono: c} terms."""
    for mono, c in vec_terms.items():
        hit = prepend_part(mono, size, color, algebra)
        if hit is None:
            continue
        new, sign = hit
        val = acc.get(new, 0) + (coeff * c if sign > 0 else -coeff * c)
        if val:
            acc[new] = val
        else:
            acc.pop(new, None)


def annihilate_into(acc, terms, size, weights, coeff, parities, ids):
    """acc += coeff * c * weights[p] * sign * rest for each (mono, c) of
    `terms` and each part (size, p) of mono, rest being mono without that
    part, keyed in acc by ids.get(rest, rest).

    This is the Koszul walk of every annihilation: the sign is -1 when the
    part is odd and an odd number of odd parts stand before it.  The part has
    the parity of the annihilated class, since the pairing is nonzero only
    between complementary degrees.
    """
    for mono, c in terms:
        passed_odd = 0
        for j, (s, p) in enumerate(mono):
            if s == size and weights[p]:
                # int factors first: c may be a Fraction, and then this is
                # the one Fraction product of the term
                val = coeff * weights[p] * c
                if passed_odd & parities[p]:
                    val = -val
                new = mono[:j] + mono[j + 1:]
                new = ids.get(new, new)
                val += acc.get(new, 0)
                if val:
                    acc[new] = val
                else:
                    acc.pop(new, None)
            passed_odd += parities[p]


def contract_into(acc, size, color, vec_terms, coeff, algebra):
    """acc += coeff * q_{-size}(e_color) applied to {mono: c} terms.

    Each part of matching size contributes -size * integral(e_color * part
    color) times the monomial with that part removed (annihilate_into).
    """
    annihilate_into(acc, vec_terms.items(), size, algebra.pairing[color],
                    -size * coeff, algebra.parities, {})


def memo(kind):
    """Memoize a per-monomial worker fn(algebra, *key) in the algebra's table
    `algebra._op_caches[kind]`.

    With D = algebra.table_scale, the tables L, d, q1k and gk hold D L_n,
    D d and D^k q_1^(k), all in ints, and k! D^k G_k; the public operators
    divide by that factor once (operators._operator).

    A call under another algebra or cap than the live one's (_LIVE) first
    empties the live tables, so one algebra holds images at a time, and a
    warm table raises TruncationExceeded exactly where a cold one would.
    Images are shared: callers must not mutate them.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def worker(algebra, *key):
            global _LIVE
            tables = algebra._op_caches
            if tables is not _LIVE[0] or _LIVE[1] != _MAX_WEIGHT:
                _LIVE[0].clear()
                _LIVE = (tables, _MAX_WEIGHT)
            table = tables.get(kind)
            if table is None:
                table = tables[kind] = {}
            image = table.get(key)
            if image is None:
                image = table[key] = fn(algebra, *key)
            return image

        return worker

    return decorate


class FockVector(SparseVector):
    """Exact rational linear combination of canonical Fock monomials."""

    __slots__ = ()
    algebra = SparseVector.space
    terms = SparseVector.coeffs
    mismatch = "vectors over different algebras"

    @classmethod
    def vacuum(cls, algebra):
        return cls(algebra, {(): 1})

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, {})

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), 0)

    __mul__ = SparseVector.scale

    def __repr__(self):
        return render_vector(self)


def canonicalize(algebra, raw):
    """Build the vector q_{s1}(a1) q_{s2}(a2) ... |0> from raw factor data.

    `raw` is a sequence of (size, AlgebraElement) pairs, each size an int
    and each class over `algebra`; the product is expanded multilinearly over
    the basis and each monomial is reordered with the Koszul sign convention.
    """
    raw = list(raw)
    for size, elem in raw:
        if size.__class__ is not int:
            raise TypeError(f"part size {size!r} is not an int")
        if size < 1:
            raise InvalidPart(f"part size {size} < 1")
        if elem.algebra is not algebra:
            raise ValueError("a factor's class and the space over different algebras")
    acc = {(): 1}
    for size, elem in reversed(raw):
        nxt = {}
        for color, coeff in elem.coeffs.items():
            create_into(nxt, size, color, acc, coeff, algebra)
        acc = nxt
        if not acc:
            break
    return FockVector(algebra, acc)


def bidegree(v):
    """Common (weight, degree) of the support, or None when mixed or zero."""
    seen = {(weight(m), degree(m, v.algebra)) for m in v.terms}
    if len(seen) == 1:
        return seen.pop()
    return None


def fh_support_bound(v, k):
    """True iff every monomial in the support has sum(size - 1) <= k."""
    return all(weight(m) - len(m) <= k for m in v.terms)


def monomial_basis(n, algebra, degree_filter=None):
    """All canonical monomials of weight n, in graded-lex order.

    Odd colors appear at most once per part size.  `degree_filter` restricts
    to a single cohomological degree.
    """
    if n < 0:
        raise ValueError("weight must be nonnegative")
    out = []
    parities = algebra.parities
    dim = algebra.dim

    def extend(mono, remaining, size, lo):
        # the next part (s, c) keeps canonical order: s <= size, and c >= lo
        # when s == size, where lo skips the last color if it is odd
        if not remaining:
            if degree_filter is None or degree(mono, algebra) == degree_filter:
                out.append(mono)
            return
        for s in range(min(size, remaining), 0, -1):
            for c in range(lo if s == size else 0, dim):
                extend(mono + ((s, c),), remaining - s, s, c + parities[c])

    extend((), n, n, 0)
    out.sort(key=sort_key)
    return out


def inner_product(u, v):
    """The bilinear form, computed by turning creations into annihilations.

    The leading factor q_n(c) of the left argument moves across as
    (-1)^(n + m * deg rest) q_{-n}(c), with m the operator degree of the
    factor.  Nonzero only when degrees are complementary (deg u + deg v =
    4 * weight) and, monomial by monomial, part sizes agree: each annihilation
    removes a part of its own size.  So every term of u is paired only with
    the terms of v of its shape, its tuple of part sizes.
    """
    if u.algebra is not v.algebra:
        raise ValueError("vectors over different algebras")
    alg = u.algebra
    by_shape = {}
    for mono, c in v.terms.items():
        by_shape.setdefault(shape(mono), {})[mono] = c
    total = 0
    for mono, cu in u.terms.items():
        group = by_shape.get(shape(mono))
        if group:
            total += cu * _pair_mono(mono, group, alg)
    return total


def shape(mono):
    """The part sizes of a canonical monomial, largest first."""
    return tuple([s for s, _ in mono])


def _pair_mono(mono, right_terms, alg):
    if not right_terms:
        return 0
    if not mono:
        return right_terms.get((), 0)
    size, color = mono[0]
    rest = mono[1:]
    m_deg = 2 * (size - 1) + alg.degrees[color]
    sign_exp = size + m_deg * degree(rest, alg)
    acc = {}
    contract_into(acc, size, color, right_terms, 1, alg)
    val = _pair_mono(rest, acc, alg)
    return -val if sign_exp & 1 else val


# -- rendering ----------------------------------------------------------------


def render_monomial(mono, algebra):
    if not mono:
        return "|0>"
    qs = " ".join(f"q_{s}({algebra.basis[c].id})" for s, c in mono)
    return f"{qs} |0>"


def render_vector(v):
    """Deterministic textual form: `c * q_i(id) ... |0>` terms joined by +/-."""
    return signed_sum(((v.terms[m], render_monomial(m, v.algebra))
                       for m in sorted(v.terms, key=sort_key)), " * ")
