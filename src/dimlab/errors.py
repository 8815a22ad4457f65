"""Exception hierarchy for dimlab.

Everything raised on purpose derives from DimlabError so the CLI can catch
one base class and emit a failure-annotated report.
"""


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
