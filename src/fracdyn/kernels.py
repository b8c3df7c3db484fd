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

with a dyadically graded quadrature in log(xi): nodes are spaced by
h = ln(2)/m (consecutive rates differ by the factor 2^(1/m)), the integrable
xi -> 0 end is lumped into a single slow mode carrying the exact tail mass at
its first-moment rate, and the grid is truncated where e^(-xi t_min) is
negligible.  The
trapezoid-in-log discretization error decays like exp(-pi^2/h) because the
integrand extends analytically to the strip |Im log(xi)| < pi/2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .errors import AccuracyError, DomainError, ValidationError
from .specfun import FractionalOrder, _alpha_value

__all__ = [
    "KernelKind",
    "SOEKernel",
    "kernel_eval",
    "soe_compress",
    "complete_monotonicity_probe",
]

_AlphaLike = Union[float, FractionalOrder]


class KernelKind(enum.Enum):
    """The three power-law memory kernels."""

    CaputoInner = "caputo_inner"
    Volterra = "volterra"
    DifferentialConvolution = "differential_convolution"


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
    from scipy.special import rgamma

    kind = _coerce_enum(KernelKind, kind, "kernel kind")
    a = _alpha_value(alpha)
    t_arr = np.asarray(t, dtype=float)
    if t_arr.size == 0:
        return t_arr.copy()
    if not np.all(np.isfinite(t_arr)) or np.any(t_arr <= 0.0):
        raise DomainError("kernel_eval requires finite t > 0")
    if kind is KernelKind.CaputoInner:
        vals = t_arr ** (-a) * rgamma(1.0 - a)
    elif kind is KernelKind.Volterra:
        vals = t_arr ** (a - 1.0) * rgamma(a)
    else:
        vals = t_arr ** (a - 2.0) * rgamma(a - 1.0)
    if np.ndim(t) == 0:
        return float(vals)
    return vals


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
        if not self.terms:
            raise ValidationError("SOEKernel requires at least one term")
        rates = [xi for _, xi in self.terms]
        if any(xi < 0.0 for xi in rates):
            raise ValidationError("SOE rates must be nonnegative")
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValidationError("SOE rates must be strictly increasing")
        t_min, t_max = self.valid_range
        if not (0.0 < t_min <= t_max):
            raise ValidationError("valid_range must satisfy 0 < t_min <= t_max")
        if not (self.tol > 0.0):
            raise ValidationError("tol must be positive")

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def weights_rates(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the weights and rates as two aligned arrays."""
        arr = np.asarray(self.terms, dtype=float)
        return arr[:, 0].copy(), arr[:, 1].copy()

    def evaluate(self, t: Union[float, np.ndarray]):
        """Evaluate ``sum_q w_q exp(-xi_q t)`` (vectorized over ``t``)."""
        w, xi = self.weights_rates()
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        with np.errstate(under="ignore"):
            vals = np.exp(-np.outer(t_arr, xi)) @ w
        if np.ndim(t) == 0:
            return float(vals[0])
        return vals


def _soe_candidate(a: float, t_min: float, t_max: float, c: float, big: float,
                   m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Build candidate (weights, rates) for one quadrature configuration.

    ``c``   = xi_0 * t_max, the lumped lower cutoff in units of 1/t_max;
    ``big`` = xi_hi * t_min, the upper cutoff in units of 1/t_min;
    ``m``   = nodes per octave (spacing h = ln2/m in log xi).
    """
    h = math.log(2.0) / m
    x_lo = math.log(c / t_max)
    x_hi = math.log(big / t_min)
    n_nodes = max(1, int(math.ceil((x_hi - x_lo) / h)) + 1)
    x = x_lo + h * np.arange(n_nodes)
    pref = math.sin(math.pi * a) / math.pi
    with np.errstate(under="ignore", over="ignore"):
        w_nodes = pref * h * np.exp((1.0 - a) * x)
    xi_nodes = np.exp(x)
    # The integrable xi -> 0 tail over (0, xi_edge] becomes one slow mode with
    # the exact tail mass and its first-moment rate (so the t-dependence of the
    # tail is matched through first order in xi_edge * t).
    xi_edge = math.exp(x_lo - 0.5 * h)
    g_edge = pref * xi_edge ** (1.0 - a)
    w_lump = g_edge / (1.0 - a)
    xi_lump = xi_edge * (1.0 - a) / (2.0 - a)
    # Euler-Maclaurin stitch: composite midpoint over [x_edge, oo) carries a
    # boundary defect +(h^2/24) g'(x_edge); remove it from the first node.
    w_nodes[0] -= (h * h / 24.0) * (1.0 - a) * g_edge
    weights = np.concatenate([[w_lump], w_nodes])
    rates = np.concatenate([[xi_lump], xi_nodes])
    return weights, rates


def _soe_max_rel_err(weights: np.ndarray, rates: np.ndarray, grid: np.ndarray,
                     exact: np.ndarray) -> float:
    with np.errstate(under="ignore"):
        approx = np.exp(-np.outer(grid, rates)) @ weights
    return float(np.max(np.abs(approx - exact) / exact))


_SOE_TERM_BUDGET = 256


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
    best achieved error if the tolerance cannot be met within 256 terms.
    """
    from scipy.special import gamma

    a = _alpha_value(alpha)
    if not (0.0 < t_min <= t_max) or not math.isfinite(t_max):
        raise DomainError("soe_compress requires 0 < t_min <= t_max, finite")
    if not (tol > 0.0):
        raise DomainError("soe_compress requires tol > 0")
    order = FractionalOrder(a) if not isinstance(alpha, FractionalOrder) else alpha

    if a == 1.0:
        # K_1(t) = 1 exactly: a single constant mode.
        return SOEKernel(order, ((1.0, 0.0),), (t_min, t_max), tol)

    if t_min == t_max:
        grid = np.array([t_min])
    else:
        grid = np.geomspace(t_min, t_max, 200)
    exact = np.asarray(kernel_eval(KernelKind.Volterra, a, grid), dtype=float)
    exact = np.atleast_1d(exact)

    best_err = math.inf
    best: Tuple[np.ndarray, np.ndarray] | None = None
    for attempt in range(6):
        shrink = 4.0**attempt
        tol_c = tol / (8.0 * shrink)
        c = min(0.5, math.sqrt(24.0 * tol_c * gamma(1.0 - a)))
        big = math.log(8.0 / tol) + 8.0 + 3.0 * attempt
        h_req = math.pi**2 / math.log(50.0 * shrink / tol)
        m = max(1, int(math.ceil(math.log(2.0) / h_req)))
        weights, rates = _soe_candidate(a, t_min, t_max, c, big, m)
        err = _soe_max_rel_err(weights, rates, grid, exact)
        if err < best_err:
            best_err, best = err, (weights, rates)
        if err <= tol:
            if len(weights) <= _SOE_TERM_BUDGET:
                weights, rates = _soe_prune(weights, rates, grid, exact, tol, err)
                terms = tuple((float(w), float(xi)) for w, xi in zip(weights, rates))
                return SOEKernel(order, terms, (t_min, t_max), tol)
            break  # over budget: refining further only adds terms
    raise AccuracyError(
        f"sum-of-exponentials tolerance {tol:g} unreachable within "
        f"{_SOE_TERM_BUDGET} terms (achieved {best_err:g})",
        achieved=best_err,
    )


def _soe_prune(weights: np.ndarray, rates: np.ndarray, grid: np.ndarray,
               exact: np.ndarray, tol: float, err: float):
    """Greedily drop terms whose total contribution fits in the error slack."""
    # Max contribution of term q over the range, relative to the smallest
    # kernel value (the kernel decreases, so min K is at t_max = grid[-1]).
    with np.errstate(under="ignore"):
        contrib = weights * np.exp(-rates * grid[0])
    rel_contrib = np.abs(contrib) / exact[-1]
    order_idx = np.argsort(rel_contrib)
    budget = 0.25 * (tol - err)
    drop_mask = np.zeros(len(weights), dtype=bool)
    running = 0.0
    for q in order_idx:
        if running + rel_contrib[q] > budget:
            break
        running += rel_contrib[q]
        drop_mask[q] = True
    if not np.any(drop_mask):
        return weights, rates
    keep = ~drop_mask
    w_new, xi_new = weights[keep], rates[keep]
    if _soe_max_rel_err(w_new, xi_new, grid, exact) <= tol:
        return w_new, xi_new
    return weights, rates


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
    a = _alpha_value(alpha)
    kind = _coerce_enum(KernelKind, kind, "kernel kind")
    pts = np.asarray(list(grid) if not isinstance(grid, np.ndarray) else grid,
                     dtype=float)
    if not isinstance(order, (int, np.integer)) or order < 0 or order > 6:
        raise ValidationError("order must be an integer in [0, 6]")
    if pts.ndim != 1 or pts.size < order + 1:
        raise ValidationError("grid must be 1-D with at least order+1 points")
    if np.any(np.diff(pts) <= 0.0):
        raise ValidationError("grid must be strictly increasing")

    f = np.atleast_1d(np.asarray(kernel_eval(kind, a, pts), dtype=float))
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
