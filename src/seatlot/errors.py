"""Exception hierarchy shared by all seatlot modules."""

import sys


class ApportionmentError(Exception):
    """Base class for all seatlot errors."""


class InputError(ApportionmentError, ValueError):
    """Malformed input: bad vectors, length mismatches, unparsable files."""


class InfeasibleError(ApportionmentError):
    """No allocation exists under the requested constraints.

    Carries structured diagnostics so callers (notably the CLI) can report
    which condition failed and for which states.
    """

    def __init__(self, message, *, diagnostics=None, trace=None):
        super().__init__(message)
        self.diagnostics = diagnostics
        self.trace = trace


class CapacityError(ApportionmentError):
    """An exact-enumeration routine was asked to exceed its size limit."""


def _digit_limit_error() -> CapacityError:
    """Refusal of a number past the int-to-string digit limit."""
    return CapacityError(f"cannot print a number of more than "
                         f"{sys.get_int_max_str_digits()} digits")


class ConvergenceError(ApportionmentError):
    """A retry-capped randomized routine exhausted its attempt budget."""
