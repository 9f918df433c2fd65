"""Exception hierarchy shared by all seatlot modules, and the text that
names a refused value."""

import sys
from fractions import Fraction


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


def _shown(value, form=repr) -> str:
    """``form(value)``, for a refusal to print.  A number with more digits
    than the interpreter turns into text is named by its size instead."""
    try:
        return form(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        if not isinstance(value, (int, Fraction)):
            return f"a {type(value).__name__} too long to print"
        sign = "negative" if value < 0 else "positive"
        kind = "integer" if isinstance(value, int) else "fraction"
        bits = max(abs(value.numerator), value.denominator).bit_length()
        return f"a {sign} {kind} of {bits} bits"


class ConvergenceError(ApportionmentError):
    """A retry-capped randomized routine exhausted its attempt budget."""
