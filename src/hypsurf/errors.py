"""Exception hierarchy shared by all modules.

Two branches matter to callers (and fix the CLI exit codes): bad inputs
versus computations that started but could not be completed reliably.
`disk` raises only the two branch classes; the subclasses below name the
faults of the other modules.
"""


class HypsurfError(Exception):
    """Base class for everything raised deliberately by this package."""


class InvalidInput(HypsurfError):
    """Precondition violated by the caller (CLI exit code 2)."""


class NumericFailure(HypsurfError):
    """Numerically unresolvable situation, surfaced rather than guessed
    (CLI exit code 3)."""


# --- words / groups --------------------------------------------------------

class IndexOutOfRange(InvalidInput):
    pass


class BudgetExceeded(InvalidInput):
    pass


class EmptySample(InvalidInput):
    pass


class CirclesOverlap(InvalidInput):
    pass


class NotAnAutomorphism(InvalidInput):
    pass


# --- signature --------------------------------------------------------------

class UnderdeterminedChi(InvalidInput):
    pass


class NoBoundary(InvalidInput):
    pass


class NonorientableDoubleUnsupported(InvalidInput):
    """Doubling a nonorientable signature is not modeled; the Euler
    characteristic of the double is still attached as ``chi_double``."""

    def __init__(self, message, chi_double):
        super().__init__(message)
        self.chi_double = chi_double


# --- pants -------------------------------------------------------------------

class NegativeLength(InvalidInput):
    pass


class NotHyperbolizable(InvalidInput):
    pass


class LengthCountMismatch(InvalidInput):
    pass


class LengthMismatch(NumericFailure):
    """The two cuffs of a gluing, or a cusp's cuff and 0, disagree."""


# --- boundary ----------------------------------------------------------------

class TooFewPoints(InvalidInput):
    pass


class OrderViolation(NumericFailure):
    """Sampled circle map is not cyclically order-consistent: its outputs,
    read in theta_in order, do not wind once around the circle in either
    direction (`boundary.order_check`); the message gives both turn
    counts."""
