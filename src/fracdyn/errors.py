"""Exception types and the argument contract shared across the package.

The CLI maps the exceptions onto process exit codes (see ``fracdyn.cli``):
config/validation problems -> 2, accuracy/instability -> 3,
non-convergence -> 4.

Every public function checks each argument with the one helper below for
its kind, and keeps its own error class.  An order ``alpha`` is a
:class:`FractionalOrder` or a number in (0, 1], else :class:`DomainError`.
A count (steps, samples, terms, a seed) is a whole number at or above its
minimum and at most the largest array size, an int or an integral float
but not a bool, and is never truncated.  A time, rate or step is a finite
float >= 0 (or > 0), a detuning ``epsilon`` a finite float of either sign,
a plateau a float in [0, 1); each is a real number (numpy real scalars and
0-d arrays too), never None, a str or a bool; a pair is two of them.  A
structured argument (a series, a bath, a fit window) is an instance of its
class.
A point argument (``z``, ``t``, ``u``, ``omega``, a time grid) is a scalar or
an array of any shape whose points are all numbers, never bools, finite and
at or above the function's bound; a ragged nest of lists is no array.  The
site's error class names the first point that is not, and the result is a
Python scalar for a scalar and an array of the input's shape for an array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np


class FracdynError(Exception):
    """Base class for package errors."""


class DomainError(FracdynError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(FracdynError, ValueError):
    """A structured object (state, generator, config) failed validation."""


class AccuracyError(FracdynError, RuntimeError):
    """A numerical routine could not meet its accuracy contract.

    ``achieved`` carries the best error bound the routine could certify,
    so callers can decide whether the result is still usable.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class NumericalInstabilityError(FracdynError, RuntimeError):
    """A propagation step produced a state violating its invariants."""


class NonConvergenceError(FracdynError, RuntimeError):
    """An iterative procedure (fit, bracket search) failed to converge."""


# The argument contract.

def _real(x) -> float:
    """``x`` as a float if it is a real number (numpy real scalars and 0-d
    arrays included, bools not); NaN, which every range check refuses,
    for anything else."""
    if type(x) is float:  # the common case, ahead of the slower ABC check
        return x
    if isinstance(x, np.ndarray) and x.ndim == 0:
        x = x[()]
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real):
        return math.nan
    return float(x)


@dataclass(frozen=True)
class FractionalOrder:
    """A Caputo order ``alpha`` constrained to ``0 < alpha <= 1``."""

    alpha: float

    def __post_init__(self):
        a = _real(self.alpha)
        if not math.isfinite(a) or not 0.0 < a <= 1.0:
            raise DomainError(f"fractional order must lie in (0, 1], got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)


_AlphaLike = Union[float, FractionalOrder]


def _order(alpha: _AlphaLike) -> FractionalOrder:
    """``alpha`` as a FractionalOrder (DomainError outside (0, 1])."""
    return alpha if isinstance(alpha, FractionalOrder) else FractionalOrder(alpha)


# The largest count: the largest size an array can have.
_COUNT_MAX = int(np.iinfo(np.intp).max)


def _count(n, name: str, minimum: int = 0, err=ValidationError) -> int:
    """``n`` as an int, if it is a whole number in [``minimum``,
    ``_COUNT_MAX``]; else ``err``."""
    whole = isinstance(n, (int, np.integer)) or (
        isinstance(n, float) and n.is_integer())
    if not whole or isinstance(n, bool) or not minimum <= n <= _COUNT_MAX:
        raise err(f"{name} must be a whole number in [{minimum}, "
                  f"{_COUNT_MAX}], got {n!r}")
    return int(n)


def _finite_float(x, name: str, err=DomainError) -> float:
    """``x`` (a detuning, of either sign) as a finite float, else ``err``."""
    v = _real(x)
    if not math.isfinite(v):
        raise err(f"{name} must be a finite real number, got {x!r}")
    return v


def _nonneg_float(x, name: str, strict: bool = False, err=DomainError) -> float:
    """``x`` as a float, finite and >= 0 (> 0 if ``strict``), else ``err``
    that ``name`` opens (e.g. "time t")."""
    v = _real(x)
    if not math.isfinite(v) or v < 0.0 or (strict and v == 0.0):
        raise err(f"{name} must be finite and {'> 0' if strict else '>= 0'}"
                  f", got {x!r}")
    return v


def _pair(x, name: str, err=ValidationError) -> Tuple[float, float]:
    """``x`` as two floats, if it is a sequence of two real numbers, neither
    NaN; else ``err``."""
    try:
        first, second = x
    except (TypeError, ValueError):  # not a sequence of two
        first = second = None
    first, second = _real(first), _real(second)
    if math.isnan(first) or math.isnan(second):
        raise err(f"{name} must be a pair of real numbers, got {x!r}")
    return first, second


def _instance(x, cls, name: str, err=ValidationError):
    """``x`` if it is a ``cls`` (a structured argument: a series, a bath, a
    window), else ``err``."""
    if not isinstance(x, cls):
        raise err(f"{name} must be a {cls.__name__}, got {type(x).__name__}")
    return x


def _unit_interval(x, name: str, err=ValidationError) -> float:
    """``x`` (a plateau) as a float in [0, 1), else ``err``."""
    v = _real(x)
    if not 0.0 <= v < 1.0:
        raise err(f"{name} must lie in [0, 1), got {x!r}")
    return v


def _coerce_enum(cls, value, what: str):
    """The member of enum ``cls`` named by ``value`` (a member, or its name or
    value in any case, with '-' for '_'); ValidationError "unknown <what>"
    otherwise."""
    if isinstance(value, cls):
        return value
    if isinstance(value, str):
        key = value.strip().lower().replace("-", "_")
        for member in cls:
            if key in (member.name.lower(), member.value):
                return member
    raise ValidationError(f"unknown {what}: {value!r}")


def _holds_bool(m) -> bool:
    """Whether ``m`` holds a bool at any depth of its lists and tuples,
    where numpy would turn it into a number; an ndarray tells by its dtype."""
    if isinstance(m, np.ndarray):
        return m.dtype.kind == "b"
    if isinstance(m, (list, tuple)):
        return any(map(_holds_bool, m))
    return isinstance(m, (bool, np.bool_))


def _points(x, what: str, lower: Optional[float] = None,
            strict: bool = False, err=DomainError) -> Tuple[np.ndarray, tuple]:
    """The points of ``x`` as a flat float (or, without ``lower``, complex)
    array, and the shape for :func:`_shaped`.

    ``x`` must be a number or a regular array of numbers, none a bool, each
    finite and >= ``lower`` (> if ``strict``), else ``err`` that ``what``
    opens (e.g. "m_wright z") names the first point that is not.
    """
    try:
        arr = np.asarray(x)
    except ValueError:  # a ragged nest of lists
        arr = np.asarray(None)
    dtype = np.dtype(bool) if _holds_bool(x) else arr.dtype
    if dtype.kind not in ("iuf" if lower is not None else "iufc"):
        kind = "real" if lower is not None else "a number"
        raise err(f"{what} must be {kind}, got {dtype}")
    flat = np.asarray(arr, complex if dtype.kind == "c" else float).ravel()
    ok = np.isfinite(flat)
    if lower is not None:
        ok &= flat > lower if strict else flat >= lower
    if not ok.all():
        bound = "" if lower is None else \
            f" and {'>' if strict else '>='} {lower:g}"
        raise err(
            f"{what} must be finite{bound}, got {flat[np.argmin(ok)].item()!r}")
    return flat, arr.shape


def _shaped(out: np.ndarray, shape: tuple):
    """Results ``out`` of :func:`_points` in the input's shape (scalar: ``()``)."""
    return out[0].item() if shape == () else out.reshape(shape)
