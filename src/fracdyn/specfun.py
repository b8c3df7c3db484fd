"""Special functions of fractional relaxation.

Building blocks used by every other module:

* :func:`gamma_fn` -- Euler Gamma with explicit pole errors,
* :func:`mittag_leffler` -- one-parameter Mittag-Leffler ``E_alpha(z)`` on the
  real line, ``0 < alpha <= 1``,
* :func:`ml_partial_sum` -- truncated Taylor sum plus its a-priori remainder
  bound ``|z|^(N+1) / Gamma(alpha (N+1) + 1)``,
* :func:`m_wright` -- the M-Wright (Mainardi) function ``M_alpha(z)`` for
  ``z >= 0``, ``0 < alpha < 1``.

``E_alpha(z) = sum_n z^n / Gamma(alpha n + 1)`` is entire, but in float64 the
Taylor series is useless for moderately negative arguments: at ``z = -5``,
``alpha = 0.5`` the largest term is ~5e9, so cancellation caps the absolute
accuracy near 1e-6.  On the negative axis ``E_alpha`` is completely monotone
and has the non-negative spectral representation

    E_alpha(-x) = int_0^inf K_alpha(r) exp(-r x^(1/alpha)) dr,
    K_alpha(r)  = (1/pi) sin(pi alpha) r^(alpha-1)
                  / (r^(2 alpha) + 2 r^alpha cos(pi alpha) + 1) >= 0,

which is evaluated by a trapezoid rule in log r (no cancellation,
geometric convergence in the step size).  The series is kept only for
``|z| <= 1.5`` where its largest term stays O(10).

``M_alpha(z) = sum_n (-z)^n / (n! Gamma(-alpha n + 1 - alpha))`` is the
density-generating function of the inverse stable subordinator.  Its series
suffers the same cancellation blow-up for larger ``z``; there the function is
evaluated through the Zolotarev-form integral of the one-sided stable density,

    M_alpha(z) = z^((2 alpha - 1)/(1 - alpha)) / (pi (1 - alpha))
                 * int_0^pi a(phi) exp(-a(phi) z^(1/(1-alpha))) dphi,
    a(phi) = sin(alpha phi)^(alpha/(1-alpha)) * sin((1-alpha) phi)
             * sin(phi)^(-1/(1-alpha)),

again a positive smooth integrand (its saddle-point evaluation reproduces the
familiar stretched-exponential large-z asymptotic, available separately as
:func:`m_wright_asymptotic`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .errors import AccuracyError, DomainError

__all__ = [
    "FractionalOrder",
    "gamma_fn",
    "mittag_leffler",
    "ml_partial_sum",
    "m_wright",
    "m_wright_asymptotic",
]


@dataclass(frozen=True)
class FractionalOrder:
    """A Caputo order ``alpha`` constrained to ``0 < alpha <= 1``."""

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a) or not 0.0 < a <= 1.0:
            raise DomainError(f"fractional order must lie in (0, 1], got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)


def _alpha_value(alpha) -> float:
    """Normalize ``float | FractionalOrder`` to a validated float."""
    if isinstance(alpha, FractionalOrder):
        return alpha.alpha
    return FractionalOrder(float(alpha)).alpha


def gamma_fn(x: float) -> float:
    """Euler Gamma on the real line.

    Raises :class:`DomainError` at the poles (x = 0, -1, -2, ...); overflow
    for large positive x returns ``inf`` silently.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma_fn expects a finite argument, got {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma_fn pole at non-positive integer x = {x:g}")
    return float(_sp.gamma(x))


def ml_partial_sum(alpha, z: float, n_terms: int) -> tuple[float, float]:
    """Partial Taylor sum of ``E_alpha`` and its truncation bound.

    Returns ``(sum_{n=0}^{N} z^n / Gamma(alpha n + 1),
    |z|^(N+1) / Gamma(alpha (N+1) + 1))`` with ``N = n_terms``.
    The bound dominates the remainder for ``|z| <= 1`` and is the standard
    first-omitted-term estimate otherwise.
    """
    a = _alpha_value(alpha)
    z = float(z)
    n = int(n_terms)
    if n < 0:
        raise DomainError("n_terms must be >= 0")
    terms = [z**k * _sp.rgamma(a * k + 1.0) for k in range(n + 1)]
    bound = abs(z) ** (n + 1) * _sp.rgamma(a * (n + 1) + 1.0)
    return math.fsum(terms), float(bound)


# --------------------------------------------------------------------------
# Mittag-Leffler: series branch
# --------------------------------------------------------------------------

# Largest series term allowed before cancellation would eat into the 1e-12
# absolute target (error ~ max_term * machine eps * O(10)).
_SERIES_MAX_TERM = 1.0e3
# Branch switch for z < 0 lives in T = |z|^(1/alpha) space: the series needs
# ~e*T/alpha terms and its largest term is ~exp(O(T)), so T <= 2 keeps both
# the length and the cancellation bounded for every alpha.
_NEG_T_SWITCH = 2.0


def _ml_series_neg_batch(a: float, x: np.ndarray) -> np.ndarray:
    """Taylor series for ``E_a(-x)``, vectorized; requires x^(1/a) <= 2."""
    nt = min(5000, int(60 + 22.0 / a))
    n = np.arange(nt)
    coef = _sp.rgamma(a * n + 1.0)
    pw = np.power.outer(-np.asarray(x, dtype=float), n)
    return pw @ coef


def _ml_series_pos(a: float, z: float, t_big: float) -> float:
    """Log-form series for z > 0 (all terms positive, no cancellation)."""
    nt = int(60 + 2.8 * t_big / a)
    if nt > 2_000_000:
        raise AccuracyError(
            f"Mittag-Leffler series impractical for alpha={a:g}, z={z:g} "
            f"({nt} terms needed)"
        )
    n = np.arange(nt)
    ln_t = n * math.log(z) - _sp.gammaln(a * n + 1.0)
    return float(np.exp(ln_t).sum())


def _ml_series_complex(a: float, z: complex) -> complex:
    """Complex-argument Taylor series with a max-term accuracy guard."""
    s = 0.0 + 0.0j
    c = 0.0 + 0.0j  # Kahan compensation
    term_max = 0.0
    prev = math.inf
    lnz = np.log(complex(z))
    for n_ in range(4000):
        t = complex(np.exp(n_ * lnz)) * float(_sp.rgamma(a * n_ + 1.0))
        term_max = max(term_max, abs(t))
        y = t - c
        new = s + y
        c = (new - s) - y
        s = new
        if abs(t) < 1e-18 * max(1.0, abs(s)) and abs(t) <= prev and n_ > 4:
            break
        prev = abs(t)
    else:
        raise AccuracyError(
            f"complex Mittag-Leffler series did not converge for z={z!r}", achieved=float("inf")
        )
    if term_max > 1.0e6:
        raise AccuracyError(
            "complex Mittag-Leffler series loses too much precision "
            f"(max term {term_max:.2e} for alpha={a:g}, z={z!r})",
            achieved=term_max * 2.2e-16,
        )
    return s


# --------------------------------------------------------------------------
# Mittag-Leffler: spectral-integral branch (z < 0)
# --------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _ml_spectral_basis(a: float):
    """Trapezoid nodes/weights for the Stieltjes representation at order ``a``.

    Returns ``(r, w)`` with ``E_a(-x) = sum w * exp(-r * x**(1/a))`` once the
    caller drops nodes beyond its cutoff.  Step size is set by the analyticity
    strip of the integrand in s = ln r: the nearest poles sit at
    ``Im s = pi (1 - a) / a``, and the exponential cutoff factor contributes
    an effective strip ~pi/2.
    """
    h = min(0.2, 0.5 * (1.0 - a))
    h = max(h, 1.5e-4)
    s_lo = -46.0 / a
    # The integral branch only sees x > 1.5, hence T = x^(1/a) >= 1.5 and the
    # exp(-r T) cutoff makes nodes beyond s ~ ln(50/1.5) irrelevant.
    s_hi = 4.0
    n = int(math.ceil((s_hi - s_lo) / h)) + 1
    s = s_lo + h * np.arange(n)
    w_exp = np.exp(a * s)
    dens = w_exp * w_exp + 2.0 * math.cos(math.pi * a) * w_exp + 1.0
    weights = (math.sin(math.pi * a) / math.pi) * h * w_exp / dens
    return np.exp(s), weights, s


def _ml_neg_batch(a: float, x: np.ndarray) -> np.ndarray:
    """``E_a(-x)`` for an array of x > 1.5 via the spectral representation."""
    r, w, s = _ml_spectral_basis(a)
    with np.errstate(over="ignore", under="ignore"):
        t_big = np.power(x, 1.0 / a)  # inf for extreme x is fine: exp -> 0
        # keep nodes only up to where exp(-r T) can matter for the smallest T
        t_min = float(np.min(t_big))
        if math.isfinite(t_min) and t_min > 0:
            s_cut = min(s[-1], math.log(50.0) - math.log(t_min))
            k = int(np.searchsorted(s, s_cut + 1.0))
            r_use, w_use = r[: k + 1], w[: k + 1]
        else:
            return np.zeros_like(np.asarray(x, dtype=float))
        vals = np.exp(-np.outer(t_big, r_use)) @ w_use
    return vals


def _ml_neg_auto(a: float, x: np.ndarray) -> np.ndarray:
    """``E_a(-x)`` for an array of x >= 0, choosing branches elementwise."""
    x = np.asarray(x, dtype=float)
    if a == 1.0:
        # E_1 = exp; the spectral basis would need ~333k nodes as a -> 1.
        return np.exp(-x)
    out = np.empty_like(x)
    x_switch = _NEG_T_SWITCH**a
    small = x <= x_switch
    if np.any(small):
        out[small] = _ml_series_neg_batch(a, x[small])
    if np.any(~small):
        out[~small] = _ml_neg_batch(a, x[~small])
    return out


def mittag_leffler(alpha, z: float) -> float:
    """One-parameter Mittag-Leffler ``E_alpha(z)`` for real ``z``.

    ``alpha = 1`` reduces to ``exp``.  For negative ``z`` with
    ``|z|^(1/alpha) > 2`` the completely monotone spectral representation is
    used (see module docstring); the Taylor series handles the remaining
    negative range and all positive ``z`` (all-positive terms there, so no
    cancellation; values beyond float64 range return ``inf``).
    """
    a = _alpha_value(alpha)
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"mittag_leffler expects finite z, got {z!r}")
    if a == 1.0:
        return math.exp(z)
    if z == 0.0:
        return 1.0
    if z > 0.0:
        t_big = z ** (1.0 / a)
        if t_big > 705.0:
            return math.inf  # E_a(z) ~ exp(z^(1/a))/a overflows
        return _ml_series_pos(a, z, t_big)
    return float(_ml_neg_auto(a, np.array([-z]))[0])


def _mittag_leffler_any(alpha, z) -> complex | float:
    """Scalar ``E_alpha`` accepting complex ``z`` (eigenmode propagation).

    Real arguments route through :func:`mittag_leffler`; genuinely complex
    arguments use the guarded Taylor series and raise
    :class:`AccuracyError` when cancellation exceeds the budget.
    """
    a = _alpha_value(alpha)
    zc = complex(z)
    if zc.imag == 0.0:
        return mittag_leffler(a, zc.real)
    if a == 1.0:
        return complex(np.exp(zc))
    return _ml_series_complex(a, zc)


# --------------------------------------------------------------------------
# M-Wright
# --------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _mw_series_coeffs(a: float):
    """(ln |1/Gamma(1-a-a n)|, signed parity) without overflow.

    Negative arguments go through the reflection formula
    1/Gamma(w) = Gamma(1-w) sin(pi w)/pi, evaluated in logs.  The length
    scales like 70/(1-a): admissible rows peak at index <= ~7/(1-a) and the
    tail decays as exp(-(1-a) n ln n).
    """
    n = np.arange(min(40000, int(80 + 70.0 / (1.0 - a))))
    w = 1.0 - a - a * n
    ln_rg = np.empty(w.shape)
    sgn = np.empty(w.shape)
    pos = w > 0
    ln_rg[pos] = -_sp.gammaln(w[pos])
    sgn[pos] = 1.0
    neg = ~pos
    r = w[neg] - np.round(w[neg])
    sin_r = np.sin(math.pi * r)
    with np.errstate(divide="ignore"):
        ln_rg[neg] = _sp.gammaln(1.0 - w[neg]) + np.log(np.abs(sin_r)) - math.log(math.pi)
    sgn[neg] = np.sign(sin_r) * np.where(np.round(w[neg]) % 2 == 0, 1.0, -1.0)
    sgn *= np.where(n % 2 == 0, 1.0, -1.0)  # (-z)^n alternation
    ln_fact = _sp.gammaln(n + 1.0)
    return n, ln_rg, sgn, ln_fact


def _mw_series_batch(a: float, z: np.ndarray):
    """Series values where admissible, plus the admissibility mask.

    A row is admissible when the largest |term| stays below the cancellation
    budget; the cached series length is enough for every admissible row.
    """
    z = np.asarray(z, dtype=float)
    n, ln_rg, sgn, ln_fact = _mw_series_coeffs(a)
    vals = np.full(z.shape, np.nan)
    ok = np.zeros(z.shape, dtype=bool)
    zero = z == 0.0
    vals[zero] = _sp.rgamma(1.0 - a)
    ok[zero] = True
    pos = ~zero
    if np.any(pos):
        ln_term = np.outer(np.log(z[pos]), n) - ln_fact[None, :] + ln_rg[None, :]
        max_ln = np.max(ln_term, axis=1)
        admissible = max_ln <= math.log(_SERIES_MAX_TERM)
        rows = np.flatnonzero(pos)[admissible]
        if rows.size:
            with np.errstate(under="ignore"):
                terms = np.exp(ln_term[admissible]) * sgn[None, :]
            vals[rows] = terms.sum(axis=1)
            ok[rows] = True
    return vals, ok


@lru_cache(maxsize=256)
def _mw_stable_basis(a: float):
    """Gauss-Legendre panel nodes for the Zolotarev integral at order ``a``.

    Panels are geometrically graded toward both endpoints of (0, pi): toward 0
    because for large ``Y = z^(1/(1-a))`` the integrand collapses into a
    Gaussian around phi = 0, toward pi because a(phi) blows up like
    ``(pi - phi)^(-1/(1-a))`` there.  Returns ``(w, log_a)`` arrays.
    """
    bps = [0.0]
    left = [math.pi / 4.0 * 2.0 ** (-j / 2.0) for j in range(52, -1, -1)]
    right = [math.pi - math.pi / 4.0 * 2.0 ** (-j / 2.0) for j in range(0, 89)]
    bps = np.concatenate(([0.0], left, right, [math.pi]))
    bps = np.unique(bps)
    xg, wg = np.polynomial.legendre.leggauss(12)
    mid = 0.5 * (bps[1:] + bps[:-1])
    half = 0.5 * (bps[1:] - bps[:-1])
    phi = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    one = 1.0 - a
    log_a = (
        (a / one) * np.log(np.sin(a * phi))
        + np.log(np.sin(one * phi))
        - (1.0 / one) * np.log(np.sin(phi))
    )
    return w, log_a


def _mw_integral_batch(a: float, z: np.ndarray) -> np.ndarray:
    """Zolotarev-form integral for M_a(z), vectorized over z > 0."""
    w, log_a = _mw_stable_basis(a)
    one = 1.0 - a
    y = np.power(z, 1.0 / one)
    with np.errstate(over="ignore", under="ignore"):
        a_big = np.exp(log_a)
        expo = log_a[None, :] - a_big[None, :] * y[:, None]
        vals = np.exp(expo) @ w
        pref = y / (math.pi * z * one)
    return pref * vals


# Nodes per vectorized M-Wright evaluation: bounds the nodes x terms and
# nodes x phi temporaries of the series and the Zolotarev integral (about
# 1.7 MB at 128 nodes for the integral).
_MW_CHUNK = 128


def m_wright(alpha, z):
    """M-Wright (Mainardi) function ``M_alpha(z)`` for ``z >= 0``.

    ``M_{1/2}(z) = exp(-z^2/4)/sqrt(pi)``; ``M_alpha(0) = 1/Gamma(1-alpha)``.
    ``alpha = 1`` is a delta distribution and raises :class:`DomainError`.
    The series is used while its largest term stays below the cancellation
    budget; otherwise the positive Zolotarev-form integral takes over.
    ``z`` may be a scalar (returns ``float``) or an array (returns an array
    of the same shape, evaluated 128 points at a time).
    """
    a = _alpha_value(alpha)
    arr = np.asarray(z, dtype=float)
    bad = (arr < 0.0) | ~np.isfinite(arr)
    if np.any(bad):
        raise DomainError(
            f"m_wright expects finite z >= 0, got {float(arr[bad][0])!r}")
    if a == 1.0:
        raise DomainError("M_1 degenerates to a point mass; alpha must be < 1")
    flat = arr.ravel()
    out = np.empty(flat.shape)
    for lo in range(0, flat.size, _MW_CHUNK):
        zc = flat[lo:lo + _MW_CHUNK]
        vals, ok = _mw_series_batch(a, zc)
        if not np.all(ok):
            vals[~ok] = _mw_integral_batch(a, zc[~ok])
        out[lo:lo + _MW_CHUNK] = vals
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def m_wright_asymptotic(alpha, z: float) -> float:
    """Leading-order large-z asymptotic of ``M_alpha``.

    ``M_alpha(z) ~ A z^((alpha-1/2)/(1-alpha)) exp(-B z^(1/(1-alpha)))`` with
    ``A = (2 pi (1-alpha))^{-1/2} alpha^((alpha-1/2)/(1-alpha))`` and
    ``B = (1-alpha) alpha^(alpha/(1-alpha))``.  Used only as a tail-mass
    estimate (truncation of subordination integrals); for values use
    :func:`m_wright`.
    """
    a = _alpha_value(alpha)
    if a == 1.0:
        raise DomainError("M_1 degenerates to a point mass; alpha must be < 1")
    z = float(z)
    if z <= 0.0:
        raise DomainError("asymptotic form needs z > 0")
    one = 1.0 - a
    p = (a - 0.5) / one
    amp = a**p / math.sqrt(2.0 * math.pi * one)
    b = one * a ** (a / one)
    with np.errstate(over="ignore", under="ignore"):
        return float(amp * z**p * math.exp(-b * z ** (1.0 / one)))
