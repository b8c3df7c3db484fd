"""Power-law memory kernels and their sum-of-exponentials compression.

Three closed-form kernels appear throughout fractional relaxation theory:

* ``CaputoInner``             kappa_C(t) = t^(-alpha) / Gamma(1-alpha),
  the weight inside the Caputo derivative;
* ``Volterra``                K_alpha(t) = t^(alpha-1) / Gamma(alpha),
  the completely monotone kernel of the equivalent Volterra integral form;
* ``DifferentialConvolution``  k_alpha(t) = t^(alpha-2) / Gamma(alpha-1),
  the distributional derivative of K_alpha.

For fast history summation the Volterra kernel is compressed into a sum of
exponentials K(t) ~ sum_q w_q exp(-xi_q t), built by discretizing the exact
Stieltjes representation

    t^(alpha-1)/Gamma(alpha) = (sin(pi alpha)/pi) int_0^oo xi^(-alpha) e^(-xi t) dxi

with McLean's substitution xi = exp(u - e^(-u)) / t_max and the trapezoid
rule in u (W. McLean, "Exponential sum approximations for t^(-beta)", in
Contemporary Computational Mathematics, Springer 2018, p. 911).  The
integrand decays double-exponentially at both ends and extends
analytically to the strip |Im u| < pi/2, so the step
h = pi^2 / ln(100/tol) meets a relative tolerance tol with a node count that
grows like ln(1/tol) ln(t_max/t_min), and no lumped mode or refinement loop
is needed.  Nodes whose rate is too small for exp(-xi t) to differ from 1 on
the range share one rate-0 mode.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple, Union

import numpy as np

from .errors import (AccuracyError, DomainError, FractionalOrder,
                     ValidationError, _AlphaLike, _coerce_enum, _count,
                     _nonneg_float, _order, _pair, _points, _real, _shaped)
from .specfun import _rgamma

__all__ = [
    "KernelKind",
    "SOEKernel",
    "kernel_eval",
    "soe_compress",
    "complete_monotonicity_probe",
]


class KernelKind(enum.Enum):
    """The three power-law memory kernels."""

    CaputoInner = "caputo_inner"
    Volterra = "volterra"
    DifferentialConvolution = "differential_convolution"


def kernel_eval(
    kind: Union[KernelKind, str],
    alpha: _AlphaLike,
    t: Union[float, np.ndarray],
):
    """Evaluate one of the three power-law kernels at ``t > 0``.

    ``t`` may be a scalar or an array; the return type matches.  All three
    kernels are singular at the origin, so ``t <= 0`` raises
    :class:`~fracdyn.errors.DomainError`.
    """
    kind = _coerce_enum(KernelKind, kind, "kernel kind")
    a = _order(alpha).alpha
    t_arr, shape = _points(t, "kernel_eval t", 0.0, strict=True)
    if kind is KernelKind.CaputoInner:
        vals = t_arr ** (-a) * _rgamma(1.0 - a)
    elif kind is KernelKind.Volterra:
        vals = t_arr ** (a - 1.0) * _rgamma(a)
    else:
        vals = t_arr ** (a - 2.0) * _rgamma(a - 1.0)
    return _shaped(vals, shape)


@dataclass(frozen=True)
class SOEKernel:
    """Sum-of-exponentials approximation of the Volterra kernel.

    ``terms`` is a sequence of ``(weight, rate)`` pairs with strictly
    increasing rates; the approximation satisfies

        |sum_q w_q exp(-xi_q t) - t^(alpha-1)/Gamma(alpha)|
            <= tol * t^(alpha-1)/Gamma(alpha)

    for all ``t`` in ``valid_range``.
    """

    alpha: FractionalOrder
    terms: Tuple[Tuple[float, float], ...]
    valid_range: Tuple[float, float]
    tol: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _order(self.alpha))
        terms = self.terms if isinstance(self.terms, (tuple, list)) else ()
        if not terms:
            raise ValidationError("SOEKernel requires at least one term, "
                                  f"in a tuple or list, got {self.terms!r}")
        rates = [_pair(term, "SOEKernel term")[1] for term in terms]
        if any(xi < 0.0 for xi in rates):
            raise ValidationError("SOE rates must be nonnegative")
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValidationError("SOE rates must be strictly increasing")
        t_min, t_max = _pair(self.valid_range, "SOEKernel valid_range")
        if not (0.0 < t_min <= t_max):
            raise ValidationError("valid_range must satisfy 0 < t_min <= t_max")
        tol = _real(self.tol)
        if not tol > 0.0:
            raise ValidationError(f"tol must be positive, got {self.tol!r}")
        object.__setattr__(self, "tol", tol)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def weights_rates(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the weights and rates as two aligned arrays."""
        arr = np.asarray(self.terms, dtype=float)
        return arr[:, 0].copy(), arr[:, 1].copy()

    def evaluate(self, t: Union[float, np.ndarray]):
        """Evaluate ``sum_q w_q exp(-xi_q t)`` (vectorized over ``t``).

        Each value is summed on its own row, so a scalar call gives the same
        bits as the same time inside an array.  Times must be finite, >= 0.
        """
        w, xi = self.weights_rates()
        t_arr, shape = _points(t, "SOEKernel.evaluate t", 0.0)
        with np.errstate(under="ignore", over="ignore"):
            vals = (np.exp(-np.outer(t_arr, xi)) * w).sum(axis=1)
        return _shaped(vals, shape)


def _mclean_u(y: float) -> float:
    """The u with u - e^(-u) = y.  The left side is increasing and concave,
    so Newton's method started below the root climbs to it monotonically."""
    u = y if y >= 0.0 else -math.log1p(-y)
    for _ in range(8):
        eu = math.exp(-u)
        u -= (u - eu - y) / (1.0 + eu)
    return u


_SOE_TERM_BUDGET = 256
# ln(xi t_max) at or below which exp(-xi t) rounds to 1 on the whole range.
_SOE_CONST_LOG = -54.0 * math.log(2.0)


def soe_compress(
    alpha: _AlphaLike,
    t_min: float,
    t_max: float,
    tol: float,
) -> SOEKernel:
    """Compress the Volterra kernel to a sum of exponentials on [t_min, t_max].

    The relative-error criterion of :class:`SOEKernel` is verified on a
    log-spaced audit grid of 200 points (a single point when the range is
    degenerate).  Raises :class:`~fracdyn.errors.AccuracyError` carrying the
    achieved error if the tolerance is not met within 256 terms.
    """
    order = _order(alpha)
    a = order.alpha
    t_min = _nonneg_float(t_min, "soe_compress t_min", strict=True)
    t_max = _nonneg_float(t_max, "soe_compress t_max")
    if not t_min <= t_max:
        raise DomainError("soe_compress requires 0 < t_min <= t_max, finite")
    if not _real(tol) > 0.0:  # inf asks for no accuracy: the tol = 1 kernel
        raise DomainError(f"soe_compress requires tol > 0, got {tol!r}")
    tol = _real(tol)

    if a == 1.0:
        # K_1(t) = 1 exactly: a single constant mode.
        return SOEKernel(order, ((1.0, 0.0),), (t_min, t_max), tol)

    # A kernel within 1 is within any looser tolerance.
    eps = min(tol, 1.0)
    h = math.pi**2 / math.log(100.0 / eps)
    # Nodes run from where the dropped mass below xi, sin(pi a)/pi
    # xi^(1-a)/(1-a), is eps/4 of K(t_max), to xi t_min = ln(4/eps) + 5.
    y_lo = math.log(0.25 * eps * math.gamma(2.0 - a)) / (1.0 - a)
    y_hi = math.log(math.log(4.0 / eps) + 5.0) + math.log(t_max) \
        - math.log(t_min)
    u = h * np.arange(math.floor(_mclean_u(y_lo) / h),
                      math.ceil(_mclean_u(y_hi) / h) + 1)
    eu = np.exp(-u)
    x = u - eu  # ln(xi t_max); xi itself underflows for a near 1
    log_xi = x - math.log(t_max)
    # sin(pi a) = sin(pi (1 - a)), exact in 1 - a for a >= 1/2.
    weights = (math.sin(math.pi * min(a, 1.0 - a)) / math.pi) * h \
        * (1.0 + eu) * np.exp((1.0 - a) * log_xi)
    rates = np.exp(log_xi)
    const = x <= _SOE_CONST_LOG
    if np.any(const):
        # These modes equal 1 in floating point; one rate-0 mode carries them.
        weights = np.concatenate(([weights[const].sum()], weights[~const]))
        rates = np.concatenate(([0.0], rates[~const]))

    kernel = SOEKernel(order, tuple(zip(weights.tolist(), rates.tolist())),
                       (t_min, t_max), tol)

    if t_min == t_max:
        grid = np.array([t_min])
    else:
        grid = np.geomspace(t_min, t_max, 200)
    exact = kernel_eval(KernelKind.Volterra, a, grid)
    err = float(np.max(np.abs(kernel.evaluate(grid) - exact) / exact))
    if err > tol or kernel.n_terms > _SOE_TERM_BUDGET:
        raise AccuracyError(
            f"sum-of-exponentials tolerance {tol:g} unreachable within "
            f"{_SOE_TERM_BUDGET} terms ({kernel.n_terms} terms, achieved "
            f"{err:g})",
            achieved=err,
        )
    return kernel


def complete_monotonicity_probe(
    alpha: _AlphaLike,
    kind: Union[KernelKind, str],
    grid: Union[Sequence[float], np.ndarray, Iterable[float]],
    order: int,
    negate: bool = False,
) -> bool:
    """Finite-difference probe of complete monotonicity on a grid.

    Returns ``True`` iff the divided differences of orders ``0..order``
    alternate in sign, ``(-1)^m D^m f >= 0``, across the whole grid.  Divided
    differences are used so the test is exact for arbitrary (non-uniform)
    increasing grids: the m-th divided difference equals f^(m)(xi)/m! at some
    interior point.  This is a necessary condition, not a proof.

    With ``negate=True`` the probe is applied to ``-f`` (useful for kernels
    that are negative and increasing, such as the differential-convolution
    kernel for alpha < 1).
    """
    a = _order(alpha).alpha
    kind = _coerce_enum(KernelKind, kind, "kernel kind")
    pts, shape = _points(list(grid) if isinstance(grid, Iterator) else grid,
                         "complete_monotonicity_probe grid", 0.0, strict=True)
    order = _count(order, "order")
    if order > 6:
        raise ValidationError("order must be a whole number in [0, 6]")
    if len(shape) != 1 or pts.size < order + 1:
        raise ValidationError("grid must be 1-D with at least order+1 points")
    if np.any(np.diff(pts) <= 0.0):
        raise ValidationError("grid must be strictly increasing")

    f = kernel_eval(kind, a, pts)
    if negate:
        f = -f
    d = f.copy()
    for m in range(order + 1):
        if m > 0:
            d = (d[1:] - d[:-1]) / (pts[m:] - pts[:-m])
        scale = float(np.max(np.abs(d))) if d.size else 0.0
        slack = 1e-9 * scale
        if np.any(((-1.0) ** m) * d < -slack):
            return False
    return True
