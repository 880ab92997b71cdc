"""Exception types shared across the package, and the integer rule.

Every error raised on purpose derives from MvfracError, so callers can
catch one type at the boundary (the CLI maps them to exit code 2).  Every
integer argument (dimension, sample count, k_max, partition part, seed)
passes as_int: numpy integers are accepted, and floats, even integral ones,
bools and strings are refused with ParameterDomainError, never truncated.
"""

import operator


class MvfracError(Exception):
    """Base class for all errors raised by mvfrac."""


class DimensionError(MvfracError):
    """Shapes or dimensions of the inputs are inconsistent."""


class DegenerateInputError(MvfracError):
    """A matrix input is singular, non-symmetric or not positive definite."""


class ParameterDomainError(MvfracError):
    """A scalar parameter violates its domain condition (e.g. a gamma pole)."""


def as_int(value, name, least=0):
    """value as a plain int of at least `least`, or a ParameterDomainError
    ending "got {value!r}".  operator.index takes numpy integers at a small
    fraction of the cost of an isinstance check against numbers.Integral,
    which every part of every Partition a table build makes would pay."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool):
        raise ParameterDomainError(f"{name} must be an integer, got {value!r}")
    if n < least:
        bound = {0: "non-negative", 1: "positive"}.get(least, f"at least {least}")
        raise ParameterDomainError(f"{name} must be {bound}, got {value!r}")
    return n


class NonConvergenceError(MvfracError):
    """A series diverges or converges too slowly to be trusted."""


class ResourceLimitError(MvfracError):
    """A configured resource ceiling (table size, rejection budget) was hit."""
