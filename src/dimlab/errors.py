"""Exception hierarchy and record base for dimlab.

Everything raised on purpose derives from DimlabError so the CLI can catch
one base class and emit a failure-annotated report.  Every value object is
a `Record`: `dataclasses` (its import, an `exec` per class) slows start-up.
"""

import math
from fractions import Fraction


class Record:
    """A value object with the fields its class's `FIELDS` names, in order:
    built by position or keyword, then `_check`ed, and equal to a record of
    the same class with equal fields; mutable and unhashable (see `Frozen`)."""

    FIELDS = ()

    def __init__(self, *args, **kwargs):
        names = self.FIELDS
        if kwargs or len(args) != len(names):
            rest = names[len(args):]  # the fields not given by position
            if len(args) > len(names) or kwargs.keys() != set(rest):
                raise TypeError(f"{type(self).__name__} takes the fields "
                                f"{', '.join(names)}, each once")
            args += tuple(map(kwargs.__getitem__, rest))
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)  # past `Frozen`'s refusal
        self._check()

    def _check(self) -> None:
        """Convert or check the fields once they are set."""

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.FIELDS))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()


class Frozen(Record):
    """A record that refuses assignment and deletion, hashed by its field
    tuple.  `_check` may still set a field through `object.__setattr__`."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a frozen {type(self).__name__} cannot change "
                             f"{name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self._values())


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


# --- harness ---

class ParseError(DimlabError):
    pass


class SchemaError(DimlabError):
    pass
