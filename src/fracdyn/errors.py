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
0-d arrays too), never None, a str or a bool.  A point argument (``z``,
``t``, ``u``, ``omega``) is a scalar or an array of any shape whose points
are all numbers, finite and at or above the function's bound; a DomainError
names the first point that is not, and the result is a Python scalar for a
scalar and an array of the input's shape for an array.
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


def _points(x, what: str, lower: Optional[float] = None,
            strict: bool = False) -> Tuple[np.ndarray, tuple]:
    """The points of ``x`` as a flat float (or, without ``lower``, complex)
    array, and the shape for :func:`_shaped`.

    Each point must be a number, finite and >= ``lower`` (> if ``strict``),
    else a DomainError that ``what`` opens (e.g. "m_wright z") names the
    first.
    """
    arr = np.asarray(x)
    is_complex = arr.dtype.kind == "c"
    if arr.dtype.kind not in ("iuf" if lower is not None else "iufc"):
        kind = "real" if lower is not None else "a number"
        raise DomainError(f"{what} must be {kind}, got {arr.dtype}")
    flat = np.asarray(arr, dtype=complex if is_complex else float).ravel()
    ok = np.isfinite(flat)
    if lower is not None:
        ok &= flat > lower if strict else flat >= lower
    if not ok.all():
        bound = "" if lower is None else \
            f" and {'>' if strict else '>='} {lower:g}"
        raise DomainError(
            f"{what} must be finite{bound}, got {flat[np.argmin(ok)].item()!r}")
    return flat, arr.shape


def _shaped(out: np.ndarray, shape: tuple):
    """Results ``out`` of :func:`_points` in the input's shape (scalar: ``()``)."""
    return out[0].item() if shape == () else out.reshape(shape)
