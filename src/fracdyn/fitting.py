"""Extraction of effective fractional parameters from coherence data.

Pipeline for summarizing a dephasing curve by the two-parameter fractional
relaxation law E_alpha(-lambda t^alpha): a windowed RMSE objective on
coherence magnitudes, coarse-grid plus Nelder-Mead optimization of
(alpha, ln lambda), the plateau-anchored ansatz
u_inf + (1 - u_inf) E_alpha(-lambda t^alpha) for saturating baths, the
optimization-free local-order and single-point estimators, and the
bath-correlation-time rule for choosing fitting windows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import (DomainError, FractionalOrder, NonConvergenceError,
                     ValidationError, _count, _finite_float, _instance,
                     _nonneg_float, _order, _pair, _real, _unit_interval)
from .specfun import _ml_slope, mittag_leffler
from .spinboson import AsymptoticRegime, BathSpec, CoherenceSeries, \
    asymptotic_Q, bath_correlation

__all__ = [
    "FitResult",
    "FitWindow",
    "bath_correlation_time",
    "default_fit_window",
    "fit_fractional",
    "lambda_from_point",
    "local_order_estimate",
    "rmse_objective",
]

_MAX_EVALS = 10_000
_ALPHA_GRID = np.arange(1, 21) * 0.05          # 0.05 .. 1.00
_LOG_LAMBDA_GRID = np.linspace(-3.0, 2.0, 41)  # lambda in [1e-3, 1e2]
_SIMPLEX_TOL = 5e-7                            # diameter < 1e-6 in (alpha, ln lambda)
_BOUND_STRIDE = 8                              # grid bound: every 8th sample
_BOUND_SLACK = 1e-9                            # covers the rounding of two sums
_SLOPE_RUN_TOL = 0.05
_SLOPE_RUN_MIN = 5


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitWindow:
    """Fitting interval 0 < t_start < t_end."""

    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        ts = _nonneg_float(self.t_start, "FitWindow.t_start", strict=True,
                           err=ValidationError)
        te = _nonneg_float(self.t_end, "FitWindow.t_end", err=ValidationError)
        if not ts < te:
            raise ValidationError(
                f"FitWindow requires 0 < t_start < t_end, got ({ts}, {te})")


@dataclass(frozen=True)
class FitResult:
    """Fitted fractional parameters and fit diagnostics."""

    alpha: FractionalOrder
    lam: float
    window: FitWindow
    rmse: float
    evaluations: int
    converged: bool
    u_inf: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _order(self.alpha))
        _nonneg_float(self.lam, "FitResult.lam", strict=True, err=ValidationError)
        _nonneg_float(self.rmse, "FitResult.rmse", err=ValidationError)
        _count(self.evaluations, "FitResult.evaluations", 1)
        if self.u_inf is not None:
            object.__setattr__(self, "u_inf",
                               _unit_interval(self.u_inf, "FitResult.u_inf"))

    def model(self, t) -> np.ndarray:
        """Evaluate the fitted coherence model on an array of times."""
        # Times t <= 0 give z = 0, hence E = 1.
        t = np.asarray(t, float)
        return _model_values(self.alpha.alpha, self.lam,
                             np.where(t > 0.0, t, 0.0), self.u_inf)

    def to_json(self) -> str:
        doc = {"alpha": self.alpha.alpha, "lambda": self.lam}
        if self.u_inf is not None:
            doc["u_inf"] = self.u_inf
        doc["window"] = {"t_start": self.window.t_start,
                         "t_end": self.window.t_end}
        doc["rmse"] = self.rmse
        doc["converged"] = self.converged
        doc["evaluations"] = self.evaluations
        return json.dumps(doc)


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def _model_values(alpha: float, lam, times: np.ndarray,
                  u_inf: Optional[float]) -> np.ndarray:
    # Times >= 0; a fit window's are > 0.  A column of lambdas gives one
    # row of model values per lambda, in one mittag_leffler call.
    out = mittag_leffler(alpha, -lam * times**alpha)
    if u_inf is not None:
        out = u_inf + (1.0 - u_inf) * out
    return out


def _mean_square(resid: np.ndarray, n: int):
    """Sum of squares of ``resid`` along its last axis, over ``n``: the
    bits of ``np.mean`` when ``n`` is that axis's length."""
    return np.add.reduce(resid * resid, axis=-1) / n


def _window_samples(target: CoherenceSeries,
                    window: FitWindow) -> Tuple[np.ndarray, np.ndarray]:
    _instance(target, CoherenceSeries, "target")
    _instance(window, FitWindow, "window")
    mask = (target.times >= window.t_start) & (target.times <= window.t_end)
    times = target.times[mask]
    mags = np.abs(target.values[mask])
    if times.size < 4:
        raise ValidationError(
            f"fit window [{window.t_start}, {window.t_end}] holds "
            f"{times.size} samples; at least 4 are required"
        )
    return times, mags


def rmse_objective(alpha, lam: float, target: CoherenceSeries,
                   window: FitWindow, u_inf: Optional[float] = None) -> float:
    """Windowed RMSE between |target| and the fractional relaxation model.

    Without ``u_inf`` the model is E_alpha(-lambda t^alpha); with ``u_inf``
    it is the plateau-anchored form u_inf + (1-u_inf) E_alpha(-lambda t^alpha).
    Magnitudes are compared, making the objective invariant under a global
    phase of the target.
    """
    a = _order(alpha).alpha
    lam = _nonneg_float(lam, "lambda", strict=True)
    if u_inf is not None:
        u_inf = _unit_interval(u_inf, "u_inf", DomainError)
    times, mags = _window_samples(target, window)
    resid = _model_values(a, lam, times, u_inf) - mags
    return math.sqrt(_mean_square(resid, times.size))


# ---------------------------------------------------------------------------
# Grid + simplex fit
# ---------------------------------------------------------------------------

def _resolve_plateau(target: CoherenceSeries, plateau,
                     bath: Optional[BathSpec]) -> Optional[float]:
    if plateau is None:
        return None
    if plateau == "auto":
        if bath is not None and bath.chi > 1.0:
            q_inf = asymptotic_Q(bath, 1.0, AsymptoticRegime.SuperOhmic)
            return math.exp(-q_inf)
        tail = max(5, target.times.size // 10)
        return float(np.median(np.abs(target.values[-tail:])))
    return _unit_interval(plateau, "plateau")


def _grid_start(times: np.ndarray, mags: np.ndarray, u_inf: Optional[float],
                budget: int) -> Tuple[np.ndarray, float, int]:
    """The first grid cell of least RMSE in (alpha, lambda) order, as
    ``(alpha, ln lambda)``, its RMSE, and the cells counted: the first
    ``budget`` cells of the 20 x 41 grid, row by row in alpha.

    Exact branch and bound.  Over every ``_BOUND_STRIDE``-th sample, the
    squared residuals of a cell are a subset of its full ones, all >= 0,
    so their sum over n is a lower bound LB on the cell's mean square.  One
    call per alpha row bounds every budgeted cell; the cell of least LB,
    evaluated in full, sets the threshold U.  Only cells with
    LB <= U (1 + ``_BOUND_SLACK``) are evaluated in full, a call per row,
    in (alpha, lambda) order with the strict-< first-minimum rule of a full
    scan.  The sums share their terms bit for bit, and each rounds to well
    under 1e-12 relative (numpy sums pairwise), so every other cell has a
    mean square, and an RMSE, above U's: above the minimum and unable to
    tie it.  The cell and its RMSE are those of the full scan, bit for bit,
    since each value depends only on its own row.
    """
    log_lams = _LOG_LAMBDA_GRID * math.log(10.0)
    # math.exp, as in the objective: np.exp may differ in the last bit.
    lams = np.array([math.exp(v) for v in log_lams])
    n = times.size
    rows = []
    for a in _ALPHA_GRID:
        cells = min(lams.size, budget)
        if cells <= 0:
            break
        budget -= cells
        rows.append((a, lams[:cells, None]))

    sub_times, sub_mags = times[::_BOUND_STRIDE], mags[::_BOUND_STRIDE]
    bounds = [_mean_square(_model_values(a, col, sub_times, u_inf) - sub_mags,
                           n) for a, col in rows]
    k = int(np.argmin(np.concatenate(bounds)))
    a, col = rows[k // lams.size]
    resid = _model_values(a, col[k % lams.size], times, u_inf) - mags
    threshold = _mean_square(resid, n) * (1.0 + _BOUND_SLACK)

    best, best_val = None, math.inf
    for (a, col), bound in zip(rows, bounds):
        cand = np.flatnonzero(bound <= threshold)
        if cand.size == 0:
            continue
        resid = _model_values(a, col[cand], times, u_inf) - mags
        vals = np.sqrt(_mean_square(resid, n))
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best = np.array([a, log_lams[cand[j]]])
            best_val = float(vals[j])
    return best, best_val, sum(col.size for _, col in rows)


def fit_fractional(target: CoherenceSeries, window: FitWindow,
                   plateau: Union[None, float, str] = None,
                   bath: Optional[BathSpec] = None,
                   init: Optional[Tuple[float, float]] = None,
                   max_evaluations: int = _MAX_EVALS) -> FitResult:
    """Fit (alpha, lambda) by coarse grid search plus Nelder-Mead refinement.

    ``plateau`` may be ``None`` (plain model), an explicit u_inf in [0, 1),
    or ``"auto"`` (analytic plateau e^{-Q_inf} when a super-Ohmic ``bath``
    is supplied, otherwise the tail median of |target|).  ``init`` replaces
    the coarse grid stage with an explicit (alpha, lambda) starting point.
    If the evaluation budget is exhausted before the simplex converges, the
    best point so far is returned with ``converged=False``.

    The grid stage is an exact branch and bound (:func:`_grid_start`).  A
    call per alpha row over every 8th window sample gives each cell a lower
    bound LB on its mean square, as the squared residuals left out are
    >= 0.  The cell of least LB, evaluated in full, gives the threshold U;
    only cells with LB <= U (1 + 1e-9) are evaluated in full, a call per
    row, and the first minimum in (alpha, lambda) order wins.  Every other
    cell's mean square exceeds U by more than rounding, so it can neither be
    the minimum nor tie it: the start cell and its RMSE are those of a full
    scan of the grid, bit for bit.

    ``evaluations`` (and the ``max_evaluations`` budget) counts every grid
    cell, evaluated in full or not, and every simplex evaluation, one per
    (alpha, lambda) point, not array calls.
    """
    from scipy.optimize import minimize

    max_evaluations = _count(max_evaluations, "max_evaluations", 1)
    times, mags = _window_samples(target, window)
    if bath is not None:
        _instance(bath, BathSpec, "bath")
    u_inf = _resolve_plateau(target, plateau, bath)
    if np.any(mags <= 0.0):
        raise ValidationError(
            "fit_fractional requires positive magnitudes on the window"
        )

    count = [0]
    n = times.size

    def objective(params: np.ndarray) -> float:
        a, log_lam = float(params[0]), float(params[1])
        if not (0.0 < a <= 1.0) or abs(log_lam) > 700.0:
            return math.inf
        count[0] += 1
        resid = _model_values(a, math.exp(log_lam), times, u_inf) - mags
        return math.sqrt(_mean_square(resid, n))

    if init is not None:
        a0, lam0 = _pair(init, "init")
        if not (0.0 < a0 <= 1.0) or not lam0 > 0.0:
            raise ValidationError("init must provide alpha in (0,1], lambda > 0")
        best = np.array([a0, math.log(lam0)])
        best_val = objective(best)
    else:
        best, best_val, count[0] = _grid_start(times, mags, u_inf,
                                               max_evaluations)

    converged = True
    start = best
    for attempt in range(2):
        budget = max_evaluations - count[0]
        if budget <= 4:
            converged = False
            break
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"xatol": _SIMPLEX_TOL, "fatol": 1e-15,
                                "maxfev": budget})
        if res.fun <= best_val:
            best, best_val = np.asarray(res.x), float(res.fun)
        if not res.success:
            converged = False
            break
        if attempt == 0:
            # One restart from a slightly perturbed optimum guards against
            # premature simplex collapse.
            start = best + np.array([-1e-3 if best[0] > 0.5 else 1e-3, 1e-3])
            start[0] = min(max(start[0], 1e-4), 1.0)

    alpha_hat = float(min(max(best[0], 1e-12), 1.0))
    lam_hat = math.exp(float(best[1]))
    rmse = rmse_objective(alpha_hat, lam_hat, target, window, u_inf)
    return FitResult(alpha_hat, lam_hat, window, rmse, count[0], converged,
                     u_inf)


# ---------------------------------------------------------------------------
# Optimization-free estimators
# ---------------------------------------------------------------------------

def local_order_estimate(target: CoherenceSeries,
                         plateau: Optional[float] = None) -> float:
    """Median local log-log slope of X(t) = -ln|u| (or -ln v with a plateau).

    Computes alpha_loc(t_i) = [ln X(t_{i+1}) - ln X(t_{i-1})] /
    [ln t_{i+1} - ln t_{i-1}] on interior points, then returns the median
    over the maximal run (>= 5 points) where successive slopes differ by
    less than 0.05.
    """
    mags = np.abs(_instance(target, CoherenceSeries, "target").values)
    if plateau is not None:
        plateau = _unit_interval(plateau, "plateau", DomainError)
        mags = (mags - plateau) / (1.0 - plateau)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = -np.log(mags)
    keep = (target.times > 0.0) & np.isfinite(x) & (x > 0.0)
    times, x = target.times[keep], x[keep]
    if times.size < _SLOPE_RUN_MIN:
        raise ValidationError(
            "local_order_estimate needs at least 5 samples with -ln|u| > 0"
        )
    ln_t, ln_x = np.log(times), np.log(x)
    slopes = (ln_x[2:] - ln_x[:-2]) / (ln_t[2:] - ln_t[:-2])

    best_lo, best_len = 0, 0
    lo = 0
    for i in range(1, slopes.size + 1):
        if i == slopes.size or abs(slopes[i] - slopes[i - 1]) >= _SLOPE_RUN_TOL:
            if i - lo > best_len:
                best_lo, best_len = lo, i - lo
            lo = i
    if best_len < _SLOPE_RUN_MIN:
        raise NonConvergenceError(
            "no stable slope plateau found; supply a longer or denser series"
        )
    return float(np.median(slopes[best_lo:best_lo + best_len]))


def lambda_from_point(alpha, t_star: float, u_star: float,
                      u_inf: Optional[float] = None) -> float:
    """Solve E_alpha(-lambda t_star^alpha) = v_star for lambda.

    ``v_star`` is ``u_star`` itself, or the plateau-normalized value
    (u_star - u_inf) / (1 - u_inf) when ``u_inf`` is given.  The left side
    is strictly decreasing in lambda, so the root in ln lambda is found by
    Newton steps, with dE/dz from the same contour nodes as E, inside the
    bracket [-40, 40]; a step that leaves the bracket bisects it instead.
    The root must reach 1e-10 in the function value.
    """
    a = _order(alpha).alpha
    t_star = _nonneg_float(t_star, "t_star", strict=True)
    v_star = u_star = _finite_float(u_star, "u_star")
    if u_inf is not None:
        u_inf = _unit_interval(u_inf, "u_inf", DomainError)
        v_star = (u_star - u_inf) / (1.0 - u_inf)
    if not (0.0 < v_star < 1.0):
        raise DomainError(
            "u_star must lie strictly between the plateau and 1"
        )
    scale = t_star**a

    def f(log_lam: float) -> float:
        return mittag_leffler(a, -math.exp(log_lam) * scale) - v_star

    lo, hi = -40.0, 40.0
    # Start where the exponential law e^{-lambda t^a} meets v_star.
    root = math.log(-math.log(v_star)) - a * math.log(t_star)
    root = min(max(root, lo), hi)
    for _ in range(200):
        resid = f(root)
        if resid == 0.0:
            break
        if resid > 0.0:
            lo = root
        else:
            hi = root
        tol = 1e-13 + 8.9e-16 * abs(root)
        if hi - lo <= tol:  # Newton steps jitter on the rounding of E
            break
        z = -math.exp(root) * scale
        slope = _ml_slope(a, z) * z  # d resid / d ln lambda, negative
        step = resid / slope if slope < 0.0 else math.nan
        root -= step
        if abs(step) <= tol:
            break
        if not lo < root < hi:
            root = 0.5 * (lo + hi)
    if abs(f(root)) > 1e-10:
        raise NonConvergenceError("lambda_from_point did not reach 1e-10")
    return math.exp(root)


# ---------------------------------------------------------------------------
# Window rule
# ---------------------------------------------------------------------------

def bath_correlation_time(bath: BathSpec) -> float:
    """First time at which |C(t)| drops to e^{-1} |C(0)|, bisected to 1e-6."""
    _instance(bath, BathSpec, "bath")
    c0 = abs(bath_correlation(bath, 0.0))
    if c0 == 0.0:
        raise DomainError("bath_correlation_time requires C(0) != 0")
    goal = c0 / math.e
    step = 0.05 / bath.omega_c
    t_max = 1e3 / bath.omega_c
    prev = 0.0
    t = step
    while t <= t_max:
        if abs(bath_correlation(bath, t)) <= goal:
            lo, hi = prev, t
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                if abs(bath_correlation(bath, mid)) <= goal:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
        prev = t
        t += step
    raise NonConvergenceError(
        "no e^-1 crossing of |C(t)| found below 1e3 / omega_c"
    )


def default_fit_window(bath: BathSpec, end_factor: float = 20.0) -> FitWindow:
    """Window rule (2 tau_B, end_factor * tau_B) with end_factor in [20, 60]."""
    factor = _real(end_factor)
    if not (20.0 <= factor <= 60.0):
        raise ValidationError(
            f"end_factor must lie in [20, 60], got {end_factor!r}"
        )
    tau_b = bath_correlation_time(bath)
    return FitWindow(2.0 * tau_b, factor * tau_b)
