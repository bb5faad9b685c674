"""Exception types shared across the package.

Every error the package raises on purpose is a QFisherError. The two
subclasses mirror the CLI exit-code taxonomy: structurally invalid input
is a ValidationError (exit 2), a computation that cannot proceed
numerically is a NumericError (exit 3).
"""


class QFisherError(Exception):
    """Common base of the package's errors; catch it to handle both kinds."""


class ValidationError(QFisherError, ValueError):
    """Input violates a structural precondition (shape, Hermiticity, range)."""


class NumericError(QFisherError, ArithmeticError):
    """Computation failed numerically: singular matrix, vanishing
    postselection probability, eigensolver non-convergence, or a result
    outside its mathematically guaranteed range (implementation bug)."""
