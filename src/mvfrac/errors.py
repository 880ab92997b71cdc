"""Exception types shared across the package, and the argument rules.

Every error raised on purpose derives from MvfracError, so callers can catch
one type at the boundary (the CLI maps them to exit code 2).  Integer
arguments (dimension, count, k_max, partition part, seed) pass as_int, real
parameters (series parameter, q) as_real, and every argument of Gamma_p
(order, gamma or beta shape) as_shape, as_real above (p-1)/2.  All refuse
bools and strings; as_int refuses floats, as_real infinities and NaN.
Parameter objects and callables (operand, integrand) pass as_instance.
"""

import math
import numbers
import operator
import reprlib


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


def as_real(value, name):
    """value as a finite float, or a ParameterDomainError ending "got ...".
    Its numbers.Real test is an ABC check, too slow for per-draw paths."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterDomainError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf if value > 0 else -math.inf
    if not math.isfinite(x):
        raise ParameterDomainError(f"{name} must be finite, got {x}")
    return x


def as_shape(value, name, p):
    """value as a float above (p-1)/2, the domain of each argument of Gamma_p
    (Muirhead 1982, Def. 2.1.10), or a ParameterDomainError ending "got"."""
    x = as_real(value, name)
    bound = 0.5 * (p - 1)
    if not x > bound:
        raise ParameterDomainError(
            f"{name} must exceed (p-1)/2 = {bound} at p = {p}, got {x}")
    return x


def as_instance(value, name, cls):
    """value unchanged if it is an instance of cls, or any callable if cls is
    the builtin callable; else a ParameterDomainError ending "got ..."."""
    if callable(value) if cls is callable else isinstance(value, cls):
        return value
    kind = "callable" if cls is callable else f"a {cls.__name__}"
    raise ParameterDomainError(
        f"{name} must be {kind}, got {reprlib.repr(value)}")


class NonConvergenceError(MvfracError):
    """A series diverges or converges too slowly to be trusted."""


class ResourceLimitError(MvfracError):
    """A configured resource ceiling (table size, rejection budget) was hit."""
