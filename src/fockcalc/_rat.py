"""Exact rational scalars.

gmpy2.mpq when available (much faster), fractions.Fraction otherwise.  Both
store reduced fractions with positive denominator and stringify as "p/q"/"p",
which is exactly the coefficient grammar used by algebra files and reports.
"""

import re

from .errors import ParseError

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Rat

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)

# an optional sign, then p or p/q in ASCII digits; checked before Rat sees the
# text, so both backends accept exactly the same strings
_RAT_GRAMMAR = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rat(text):
    """Parse "p" or "p/q" into an exact rational."""
    match = _RAT_GRAMMAR.fullmatch(str(text))
    if match is None:
        raise ParseError(f"bad rational coefficient {text!r}: expected p or p/q")
    num, den = match.groups()
    if den is not None and not int(den):
        raise ParseError(f"bad rational coefficient {text!r}: zero denominator")
    return Rat(int(num), int(den or 1))
