"""Exactly solvable spin-boson pure dephasing.

Zero- and finite-temperature dephasing of a qubit coupled to a bosonic bath
through sigma_z: spectral densities with algebraic low-frequency behavior and
exponential cutoff, the dephasing functional Q(t) and the bath correlation
function C(t) (one closed form at every temperature: the zero-temperature
form summed over the thermal occupation series, on scalars or whole time
arrays), the exact coherence
u(t) = e^{-i eps t} e^{-Q(t)}, closed-form short- and long-time asymptotics,
and the two comparison models (constant-rate Markovian dephasing and the
time-local model with rate Q'(t)/2).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple, Union

import numpy as np

from .errors import (DomainError, ValidationError, _finite_float, _instance,
                     _nonneg_float, _pair, _points, _real, _shaped)

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

# The finite-temperature series sums n < _HEAD directly and the rest by
# Euler-Maclaurin with these B_{2j}/(2j)!, j = 1..9.
_HEAD = 12
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600,
              -3617 / 10670622842880000, 43867 / 5109094217170944000)


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
        for name in ("eta", "chi", "omega_c"):
            object.__setattr__(self, name, _nonneg_float(
                getattr(self, name), f"BathSpec.{name}", strict=True))
        beta = _real(self.beta)
        if not beta > 0.0:
            raise DomainError(
                f"BathSpec.beta must be > 0 or inf, got {self.beta!r}")
        object.__setattr__(self, "beta", beta)


def spectral_density(bath: BathSpec, omega) -> Union[float, np.ndarray]:
    """Evaluate J(omega) = eta * omega^chi * omega_c^(1-chi) * e^(-omega/omega_c).

    ``omega``: a scalar or any-shape array of finite frequencies >= 0.
    """
    _instance(bath, BathSpec, "spectral_density bath")
    w, shape = _points(omega, "spectral_density omega", 0.0)
    out = bath.eta * w**bath.chi * bath.omega_c ** (1.0 - bath.chi) * np.exp(
        -w / bath.omega_c
    )
    return _shaped(out, shape)


# ---------------------------------------------------------------------------
# Dephasing functional and bath correlation
# ---------------------------------------------------------------------------

def _polar(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """ln|1 - i x| and arctan x, so that ln(1 - i x) = ln|1 - i x| - i arctan x.

    ln|1 - i x| = log1p(x^2)/2 keeps full relative accuracy as x -> 0; above
    x = 1e8 it is ln x to the last bit, and x^2 would overflow past 1e154.
    """
    log_mod = np.where(x > 1e8, np.log(np.maximum(x, 1e8)),
                       0.5 * np.log1p(np.minimum(x, 1e8) ** 2))
    return log_mod, np.arctan(x)


def _q_order(q: float, amp: float, x: np.ndarray) -> np.ndarray:
    """amp Gamma(-q) [1 - Re (1 - i x)^q], with its limits at the poles.

    With a = q ln|1 - i x| and b = q arctan x, 1 - Re (1 - i x)^q is
    2 sin^2(b/2) - expm1(a) cos b, which has no cancellation as x -> 0 or
    q -> 0.  Above q = 1/2 the factor (1 - i x) comes out first, so that
    with d = q - 1 in a and b the bracket gains x e^a sin b and vanishes
    like d without cancellation at the pole q = 1.  The limit is
    ln|1 - i x| at q = 0 and x arctan x - ln|1 - i x| at q = 1.
    """
    log_mod, angle = _polar(x)
    if q == 0.0:
        return amp * log_mod
    if q == 1.0:
        return amp * (x * angle - log_mod)
    d = q - 1.0 if q > 0.5 else q
    a, b = d * log_mod, d * angle
    bracket = 2.0 * np.sin(0.5 * b) ** 2 - np.expm1(a) * np.cos(b)
    if q > 0.5:
        bracket = bracket + x * np.exp(a) * np.sin(b)
    return amp * math.gamma(-q) * bracket


def _c_order(q: float, amp: float, x: np.ndarray) -> np.ndarray:
    """amp Gamma(-q) Re (1 - i x)^q, for q < 0."""
    log_mod, angle = _polar(x)
    return amp * math.gamma(-q) * np.exp(q * log_mod) * np.cos(q * angle)


def _thermal_sum(bath: BathSpec, x: np.ndarray, p: float, order,
                 amp: float) -> np.ndarray:
    """amp * sum_n c_n rho_n^p order(p, x / rho_n), rho_n = 1 + n beta omega_c.

    coth(beta w / 2) = 1 + 2 sum_{n>=1} e^{-n beta w} splits a bath integral
    into zero-temperature integrals with the cutoff omega_c lowered to
    omega_c / rho_n; ``order(q, amp, x)`` is one of them in the scaled time
    x = omega_c t / rho_n, so c_0 = 1, c_n = 2 and rho_0 = 1 (beta = inf is
    the n = 0 term alone).  Every order obeys
    d/drho [rho^q order(q)] = -rho^(q-1) order(q-1) in these units, so the
    terms n >= _HEAD sum to rho^p [order(p+1)/r + order(p)/2 + sum_j
    B_2j/(2j)! r^(2j-1) order(p-2j+1)] at rho = rho_HEAD, with
    r = beta omega_c / rho < 1/_HEAD (Euler-Maclaurin).  The terms are
    added one at a time, elementwise, so a scalar and an array give the
    same bits.
    """
    out = order(p, amp, x)
    bw = bath.beta * bath.omega_c
    if math.isinf(_HEAD * bw):
        # beta = inf, or beta omega_c so large that every thermal term is
        # below rounding and rho_HEAD would overflow.
        return out
    for n in range(1, _HEAD):
        rho = 1.0 + n * bw
        out = out + order(p, 2.0 * amp * rho ** p, x / rho)
    rho = 1.0 + _HEAD * bw
    r, amp_n, x_n = bw / rho, 2.0 * amp * rho ** p, x / rho
    out = out + order(p + 1.0, amp_n / r, x_n)
    out = out + order(p, 0.5 * amp_n, x_n)
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        k = 2 * j - 1
        out = out + order(p - k, coeff * amp_n * r ** k, x_n)
    return out


def _on_times(bath: BathSpec, t, what: str, p: float, order, amp: float):
    """Evaluate a bath function at every time in ``t`` (scalar or array).

    A scalar or 0-d ``t`` gives a ``float``, an array an array of its shape.
    A chi so large that a Gamma factor of the series overflows (about 170
    at beta = inf, 150 at finite beta) is a :class:`DomainError`.
    """
    arr, shape = _points(t, f"{what} t", 0.0)
    try:
        out = _thermal_sum(bath, bath.omega_c * arr, p, order, amp)
    except OverflowError:
        raise DomainError(
            f"{what}: chi = {bath.chi:g} overflows the Gamma factors of "
            f"its closed form") from None
    return _shaped(out, shape)


def dephasing_Q(bath: BathSpec, t) -> Union[float, np.ndarray]:
    """Q(t) = (2/pi) * int_0^inf dw J(w)/w^2 (1 - cos wt) coth(beta w / 2).

    ``t`` may be a scalar (returns ``float``) or an array of any shape
    (returns an array of that shape); every element must be finite and
    >= 0, else :class:`DomainError`.

    At beta = inf the integral has the closed form (Leggett et al., Rev.
    Mod. Phys. 59, 1 (1987))
        Q = (2/pi) eta Gamma(chi-1) [1 - Re (1 - i omega_c t)^(1-chi)],
        Q = (eta/pi) ln(1 + omega_c^2 t^2) at chi = 1.
    Finite beta adds the same form with omega_c / rho_n in place of omega_c,
    rho_n = 1 + n beta omega_c, weighted 2 rho_n^(1-chi), for n = 1, 2, ...:
    eleven terms directly, the rest by Euler-Maclaurin.  Every term is
    evaluated on the whole array without cancellation at small t or near
    chi = 1 and 2: against 40-digit mpmath, the relative error is below
    1e-14 for chi in [0.05, 10], beta in [1e-3, 1e6] and t in [1e-8, 1e8].
    """
    _instance(bath, BathSpec, "dephasing_Q bath")
    with np.errstate(over="ignore", invalid="ignore"):
        q = _on_times(bath, t, "dephasing_Q", 1.0 - bath.chi, _q_order,
                      (2.0 / math.pi) * bath.eta)
    if not np.all(np.isfinite(q)):
        raise DomainError(f"dephasing_Q: eta = {bath.eta:g} overflows Q at "
                          f"omega_c = {bath.omega_c:g}")
    return q + 0.0  # Q >= 0: an underflowed -0.0 becomes +0.0


def bath_correlation(bath: BathSpec, t) -> Union[float, np.ndarray]:
    """C(t) = (2/pi) * int_0^inf dw J(w) cos(wt) coth(beta w / 2).

    Same array contract as :func:`dephasing_Q`.  At beta = inf,
        C = (2/pi) eta Gamma(chi+1) omega_c^2 Re (1 - i omega_c t)^(-(chi+1));
    finite beta adds the same series over rho_n as :func:`dephasing_Q`,
    with weights 2 rho_n^(-(chi+1)).  The absolute error is ~1e-15 |C(0)|.
    A C beyond float64 range (eta omega_c^2 too large) is a
    :class:`DomainError`.
    """
    _instance(bath, BathSpec, "bath_correlation bath")
    try:
        amp = (2.0 / math.pi) * bath.eta * bath.omega_c ** 2
    except OverflowError:  # omega_c^2 beyond float64: refused below
        amp = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        c = _on_times(bath, t, "bath_correlation", -(bath.chi + 1.0),
                      _c_order, amp)
    if not np.all(np.isfinite(c)):
        raise DomainError(f"bath_correlation: omega_c = {bath.omega_c:g} "
                          f"overflows C at eta = {bath.eta:g}")
    return c


# ---------------------------------------------------------------------------
# Coherence series
# ---------------------------------------------------------------------------

def _validated_grid(grid) -> np.ndarray:
    """A checked float copy of ``grid``: the caller's array is never the one
    a :class:`CoherenceSeries` freezes."""
    times, shape = _points(grid, "time grid", 0.0, err=ValidationError)
    if len(shape) != 1 or times.size == 0:
        raise ValidationError("time grid must be a non-empty 1-D array")
    if np.any(np.diff(times) <= 0.0):
        raise ValidationError("time grid must be strictly increasing")
    return times.copy()


_SERIES_TAGS = ("exact", "markov", "tcl", "fractional", "fractional-plateau")


@dataclass(frozen=True)
class CoherenceSeries:
    """Sampled coherence u(t_k) with a provenance tag."""

    times: np.ndarray
    values: np.ndarray
    meta: str

    def __post_init__(self) -> None:
        times = _validated_grid(self.times)
        values = np.array(self.values, dtype=complex)
        if self.meta not in _SERIES_TAGS:
            raise ValidationError(
                f"CoherenceSeries.meta must be one of {_SERIES_TAGS}"
            )
        if times.shape != values.shape:
            raise ValidationError(
                "CoherenceSeries needs matching 1-D times and values"
            )
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


def exact_coherence(bath: BathSpec, epsilon: float, grid) -> CoherenceSeries:
    """u(t_k) = e^{-i epsilon t_k} e^{-Q(t_k)} with u(0) normalized to 1."""
    _instance(bath, BathSpec, "exact_coherence bath")
    epsilon = _finite_float(epsilon, "exact_coherence epsilon")
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


def _chi_gamma(bath: BathSpec, x: float) -> float:
    """Gamma(x) for a bath's closed form; DomainError naming chi if it
    overflows."""
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(
            f"chi = {bath.chi:g} overflows Gamma({x:g})") from None


def _finite_asymptote(bath: BathSpec, t: float, q: float) -> float:
    """``q``; DomainError naming omega_c if it overflowed."""
    if math.isinf(q):
        raise DomainError(f"omega_c = {bath.omega_c:g} overflows the "
                          f"asymptote at t = {t:g}")
    return q


def asymptotic_Q(bath: BathSpec, t: float, regime: AsymptoticRegime) -> float:
    """Leading-order asymptotic form of Q(t) in the given regime.

    ShortTime: (1/2) eta Gamma(chi+1) omega_c^2 t^2 (any chi).
    SubOhmic (chi < 1): C_chi t^(1-chi) with
        C_chi = -(2/pi) eta omega_c^(1-chi) Gamma(chi-1) sin(pi chi / 2).
    Ohmic (chi = 1): (eta/2) ln(omega_c^2 t^2) = eta ln(omega_c t).
    SuperOhmic (chi > 1): the plateau Q_inf = (2/pi) eta Gamma(chi-1); the
        approach Q_inf - d t^(1-chi), whose d is fitted, is the caller's.

    The ShortTime and Ohmic forms are the bare table forms: they omit the
    2/pi that :func:`dephasing_Q` carries, so in those regimes
    dephasing_Q -> (2/pi) * asymptotic_Q, i.e. (1/pi) eta Gamma(chi+1)
    omega_c^2 t^2 at short times and (eta/pi) ln(omega_c^2 t^2) in the
    Ohmic tail.  ``fracdyn exact`` reports that factor as the fitted
    ``amplitude_prefactor``.  The SuperOhmic plateau includes the 2/pi and
    is the limit of :func:`dephasing_Q` itself.  So is the SubOhmic form at
    zero temperature: C_chi is the large-t coefficient of the closed form,
    and dephasing_Q / asymptotic_Q -> 1 (finite beta adds a thermal part
    that grows faster).

    Whether ``t`` lies in the regime's validity range is the caller's
    responsibility; chi must match the regime.  A ShortTime or SubOhmic
    value beyond the largest double is a DomainError naming omega_c.
    """
    _instance(bath, BathSpec, "asymptotic_Q bath")
    if not isinstance(regime, AsymptoticRegime):
        raise ValidationError("regime must be an AsymptoticRegime")
    t = _nonneg_float(t, "asymptotic_Q t", strict=True)
    eta, chi, wc = bath.eta, bath.chi, bath.omega_c
    if regime is AsymptoticRegime.ShortTime:
        return _finite_asymptote(
            bath, t, 0.5 * eta * _chi_gamma(bath, chi + 1.0) * wc * wc * t * t)
    if regime is AsymptoticRegime.SubOhmic:
        if chi >= 1.0:
            raise DomainError("SubOhmic asymptotics require chi < 1")
        c_chi = -(2.0 / math.pi) * eta * wc ** (1.0 - chi) \
            * math.gamma(chi - 1.0) * math.sin(0.5 * math.pi * chi)
        return _finite_asymptote(bath, t, c_chi * t ** (1.0 - chi))
    if regime is AsymptoticRegime.Ohmic:
        if chi != 1.0:
            raise DomainError("Ohmic asymptotics require chi = 1")
        # ln(omega_c t) as a sum of logs: the product may leave the range
        # of a double where the log does not.
        return eta * (math.log(wc) + math.log(t))
    if chi <= 1.0:
        raise DomainError("SuperOhmic asymptotics require chi > 1")
    return (2.0 / math.pi) * eta * _chi_gamma(bath, chi - 1.0)


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
    _instance(series, CoherenceSeries, "markov_fit_rate series")
    t_start, t_end = _pair(window, "markov_fit_rate window")
    if not (t_start < t_end):
        raise ValidationError("markov_fit_rate window must have t_start < t_end"
                              f", got {tuple(window)!r}")
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
    gamma = _nonneg_float(gamma, "markov_coherence gamma", strict=True)
    epsilon = _finite_float(epsilon, "markov_coherence epsilon")
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
    _instance(bath, BathSpec, "tcl_coherence bath")
    epsilon = _finite_float(epsilon, "tcl_coherence epsilon")
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
