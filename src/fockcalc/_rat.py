"""Exact rational scalars, int first.

Every coefficient is a Python int until a division makes it a Rat: gmpy2.mpq
when available (much faster), fractions.Fraction otherwise.  Every division
goes through `ratio`: the pivots of _linalg and the explicit fractions 1/2,
1/k! and (n^3 - n)/12; parsed "p/q" coefficients are Rats too.  A float
never enters: `exact` turns away anything but an int or a Rat.  Both backends
store reduced fractions with positive denominator and stringify as
"p/q"/"p", like ints, which is exactly the coefficient grammar used by
algebra files and reports; `signed_sum` renders every linear combination.
"""

import math
import re

from .errors import ParseError

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Rat

# an optional sign, then p or p/q in ASCII digits; checked before Rat sees the
# text, so both backends accept exactly the same strings
_RAT_GRAMMAR = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def ratio(num, den=1):
    """The exact quotient num/den: an int when it is whole, else a Rat."""
    value = Rat(num) / den
    return int(value) if value.denominator == 1 else value


def whole(c):
    """c as an int; ArithmeticError when it is not whole, so nothing rounds."""
    if c.__class__ is not int and c.denominator != 1:
        raise ArithmeticError(f"coefficient {c} is not whole")
    return int(c)


def common_den(values):
    """The least common denominator of exact `values` (1 for none)."""
    return math.lcm(*(int(x.denominator) for x in values))


def exact(scalar):
    """`scalar` itself when it is an int or a Rat; TypeError otherwise, so
    floats, strings and other inexact values never become coefficients."""
    if not isinstance(scalar, (int, Rat)):
        raise TypeError(f"expected an int or an exact rational, got "
                        f"{type(scalar).__name__} {scalar!r}")
    return scalar


def parse_rat(text):
    """Parse "p" or "p/q" into an int when whole, else a Rat."""
    match = _RAT_GRAMMAR.fullmatch(str(text))
    if match is None:
        raise ParseError(f"bad rational coefficient {text!r}: expected p or p/q")
    num, den = match.groups()
    if den is not None and not int(den):
        raise ParseError(f"bad rational coefficient {text!r}: zero denominator")
    return ratio(int(num), int(den or 1))


def signed_sum(terms, sep="*"):
    """Render (coeff, body) pairs as `c1*body1 + c2*body2 - c3*body3`: each
    magnitude joined to its body by `sep`, a leading minus only on a negative
    first term, and "0" when there are no terms."""
    bits = []
    for c, body in terms:
        sign = (" - " if c < 0 else " + ") if bits else ("-" if c < 0 else "")
        bits.append(f"{sign}{abs(c)}{sep}{body}")
    return "".join(bits) or "0"
