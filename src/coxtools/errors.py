"""The exceptions the command line maps to its own error documents.

This module imports nothing, so the CLI can name these classes without
loading the modules that raise them; ``monoids`` and ``quotients``
re-export them under the same names.
"""


class NotSaturatedError(ValueError):
    """Raised when a divisor theory is requested for a non-saturated monoid."""

    def __init__(self, witness):
        super().__init__(f"monoid is not saturated; missing lattice point {witness}")
        self.witness = witness


class ClosureCapExceededError(RuntimeError):
    pass


# every domain error of the package subclasses ValueError, except the closure cap
DOMAIN_ERRORS = (ValueError, ClosureCapExceededError, ZeroDivisionError)
