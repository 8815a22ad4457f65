"""Exception hierarchy for dimlab.

Everything raised on purpose derives from DimlabError so the CLI can catch
one base class and emit a failure-annotated report.
"""

import math
from fractions import Fraction


def magnitude(x) -> str:
    """An int or Fraction for an error text: exact while its terms fit 64
    bits, else its sign, four digits and a power of ten, so that an exact
    value of any size costs the text a few bytes."""
    x = Fraction(x)
    if max(x.numerator.bit_length(), x.denominator.bit_length()) <= 64:
        return str(x)
    exponent = math.log10(abs(x.numerator)) - math.log10(x.denominator)
    power = math.floor(exponent)
    digits = f"{10 ** (exponent - power):.3f}"
    if digits == "10.000":  # a power of ten, with the float just below it
        digits, power = "1.000", power + 1
    sign = "-" if x < 0 else ""
    return f"{sign}{digits}e{power:+d}"


class DimlabError(Exception):
    pass


# --- matrix validation ---

class NonPositiveEntry(DimlabError):
    pass


class ColumnNotStochastic(DimlabError):
    pass


class EmptyPeriod(DimlabError):
    pass


class ShapeMismatch(DimlabError):
    """Paired matrices disagree on a column's digit count."""


# --- digit / point arithmetic ---

class DigitOutOfRange(DimlabError):
    pass


class OutOfUnitInterval(DimlabError):
    pass


class ToleranceNotReached(DimlabError):
    """Rank budget exhausted before the image interval shrank below tol."""


# --- estimators ---

class DegenerateDenominator(DimlabError):
    pass


class BudgetExceeded(DimlabError):
    pass


class TooFewScales(DimlabError):
    pass


class NonUniformColumns(DimlabError):
    pass


class GridTooCoarse(DimlabError):
    pass


class PremeasureOrderingViolated(DimlabError):
    """The uncentered packing premeasure came out below the centered one."""


# --- harness ---

class ParseError(DimlabError):
    pass


class SchemaError(DimlabError):
    pass
