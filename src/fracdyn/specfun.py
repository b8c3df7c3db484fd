"""Special functions of fractional relaxation.

Building blocks used by every other module:

* :func:`gamma_fn` -- Euler Gamma with explicit pole errors,
* :func:`mittag_leffler` -- one-parameter Mittag-Leffler ``E_alpha(z)`` for
  ``0 < alpha <= 1`` and real or complex ``z``, scalar or array,
* :func:`ml_partial_sum` -- truncated Taylor sum plus its a-priori remainder
  bound ``|z|^(N+1) / Gamma(alpha (N+1) + 1)``,
* :func:`m_wright` -- the M-Wright (Mainardi) function ``M_alpha(z)`` for
  ``z >= 0``, ``0 < alpha < 1``.

``E_alpha(z) = sum_n z^n / Gamma(alpha n + 1)`` is entire, but in float64 its
Taylor series is useless for moderate ``|z|`` off the positive axis: at
``z = -5``, ``alpha = 0.5`` the largest term is ~5e9.  It is computed instead
as the inverse Laplace transform of ``s^(alpha-1) / (s^alpha - z)``, by the
trapezoid rule on the parabola ``s = mu (1 + i u)^2`` with the ``(mu, h, N)``
of Garrappa (SIAM J. Numer. Anal. 53 (2015) 1350) for a 1e-15 target.  The
one pole on the principal sheet, ``s* = z^(1/alpha)`` for
``|arg z| <= alpha pi``, adds its residue ``e^{s*} / alpha`` when it lies
right of the contour.  Every ``z`` without a pole, the negative axis
included, shares one 55-node contour; a pole needs at most 361 nodes.

Which argument takes which path:

* ``alpha = 1``: ``exp``, no contour;
* real ``z <= 0`` (down to ``-1e150``): the shared contour folded onto its
  28 nodes with ``k >= 0``.  Its nodes and weights come in conjugate pairs,
  so ``E = Re[w_0 / (s_0^a - z)] + 2 sum_{k>=1} Re[w_k / (s_k^a - z)]``,
  summed in real arithmetic as ``(w_r d + w_i s_i) / (d^2 + s_i^2)`` with
  ``d = Re s^a - z``.  This is the fractional relaxation law the fit and
  the estimators evaluate;
* real ``z > 0`` or below ``-1e150``, and complex ``z``: the complex sum
  over the shared contour, or over the pole contour plus the residue.

``z = 0`` returns exactly 1 on every path.

``M_alpha(z) = sum_n (-z)^n / (n! Gamma(-alpha n + 1 - alpha))`` is the
density-generating function of the inverse stable subordinator.  Its series
suffers the same cancellation blow-up for larger ``z``; there the function is
evaluated through the Zolotarev-form integral of the one-sided stable density,

    M_alpha(z) = z^(alpha/(1 - alpha)) / (pi (1 - alpha))
                 * int_0^pi a(phi) exp(-a(phi) z^(1/(1-alpha))) dphi,
    a(phi) = sin(alpha phi)^(alpha/(1-alpha)) * sin((1-alpha) phi)
             * sin(phi)^(-1/(1-alpha)),

again a positive smooth integrand (its saddle-point evaluation reproduces the
familiar stretched-exponential large-z asymptotic, available separately as
:func:`m_wright_asymptotic`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import (DomainError, FractionalOrder, _count, _nonneg_float,
                     _order, _points, _shaped)

__all__ = [
    "FractionalOrder",
    "gamma_fn",
    "mittag_leffler",
    "ml_partial_sum",
    "m_wright",
    "m_wright_asymptotic",
]


def gamma_fn(x: float) -> float:
    """Euler Gamma on the real line.

    Raises :class:`DomainError` at the poles (x = 0, -1, -2, ...); overflow
    for large positive x returns ``inf`` silently.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma_fn expects a finite argument, got {x!r}")
    try:
        return math.gamma(x)
    except ValueError:
        raise DomainError(f"gamma_fn pole at non-positive integer x = {x:g}") from None
    except OverflowError:
        return math.copysign(math.inf, x)


def _rgamma(x: float) -> float:
    """1/Gamma(x) for real x: 0 at the poles and where Gamma overflows."""
    try:
        return 1.0 / math.gamma(x)
    except (ValueError, OverflowError):
        return 0.0


def ml_partial_sum(alpha, z: float, n_terms: int) -> tuple[float, float]:
    """Partial Taylor sum of ``E_alpha`` and its truncation bound.

    Returns ``(sum_{n=0}^{N} z^n / Gamma(alpha n + 1),
    |z|^(N+1) / Gamma(alpha (N+1) + 1))`` with ``N = n_terms``.
    The bound dominates the remainder for ``|z| <= 1`` and is the standard
    first-omitted-term estimate otherwise.
    """
    a = _order(alpha).alpha
    z = float(z)
    n = _count(n_terms, "n_terms", 0, DomainError)
    try:
        terms = [z**k * _rgamma(a * k + 1.0) for k in range(n + 1)]
        return math.fsum(terms), abs(z) ** (n + 1) * _rgamma(a * (n + 1) + 1.0)
    except OverflowError:
        raise DomainError(f"ml_partial_sum: z^n overflows float64 at "
                          f"z = {z:g}, n_terms = {n}") from None


# --------------------------------------------------------------------------
# Mittag-Leffler: Laplace inversion on a parabolic contour
# --------------------------------------------------------------------------

# Garrappa's target accuracy and the unit roundoff.  Quadrature terms grow
# like exp(mu) at the contour vertex mu, so mu <= _MU_MAX keeps roundoff at
# the target.
_LOG_TOL = math.log(1e-15)
_LOG_EPS = math.log(np.finfo(float).eps)
_MU_MAX = _LOG_TOL - _LOG_EPS
# A pole with phi(s*) at or below this sits on the branch cut and is ignored.
_PHI_MIN = 1e-15
# Rows per complex contour product: bounds the rows x nodes temporaries
# (about 3 MB at the longest pole contour, 361 nodes).  The real-axis fold
# bounds its two rows x 28 float temporaries by bytes instead: 128 KiB each
# (585 rows) stays in cache and ran fastest of 4 KiB to 8 MiB.
_ML_CHUNK = 512
_FOLD_BYTES = 2**17
# The fold squares d = Re s^a - z, which overflows for |z| above ~1.3e154;
# more negative z take the complex path.
_FOLD_MAX = 1e150


def _capped_contour(phi_bar):
    """``(mu, h, N)`` with the vertex at ``_MU_MAX``, right of ``phi_bar``."""
    w = math.sqrt(_LOG_EPS / (_LOG_EPS - _LOG_TOL))
    u = np.sqrt(-phi_bar / _LOG_EPS)
    n = np.ceil(w * _LOG_TOL / (2.0 * math.pi) / (u * w - 1.0))
    return _MU_MAX, w / n, n


def _contour_left_of_pole(phi):
    """Garrappa's bounded region (p = 0, q = 1): between origin and pole."""
    sq = np.minimum(np.sqrt(phi), 2.0 * math.sqrt(_MU_MAX))
    f_max, f_min = math.exp(_MU_MAX), 1.01
    f_bar = f_min + f_min / f_max * (f_max - f_min)
    sq_bar = 2.0 * sq / (2.0 + 1.0 / f_bar)
    log_tol = _LOG_TOL - math.log(f_bar)
    w = -sq_bar**2 / log_tol
    mu = (sq_bar / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol
    return mu, h, np.ceil(np.sqrt(1.0 - log_tol / mu) / h)


def _contour_right_of_pole(phi):
    """Garrappa's unbounded region (p = 1): right of the pole.

    Admissible only for ``phi < _MU_MAX``; the caller checks that.
    """
    sq_phi = np.sqrt(phi)
    phi_bar = 1.01 * phi
    for _ in range(8):  # settles at the second pass for every phi
        lt = _LOG_TOL / phi_bar
        n = np.ceil(phi_bar / math.pi
                    * (1.0 - 1.5 * lt + np.sqrt(1.0 - 2.0 * lt)))
        big_a = math.pi * n / phi_bar
        sq_mu = (np.sqrt(phi_bar) * np.abs(4.0 - big_a)
                 / np.abs(7.0 - np.sqrt(1.0 + 12.0 * big_a)))
        f = sq_mu / (np.sqrt(phi_bar) - sq_phi)
        redo = (f <= 1.0) | (f >= 10.0)
        if not np.any(redo):
            break
        phi_bar = np.where(redo, (sq_mu / 5.0 + sq_phi) ** 2, phi_bar)
    mu = sq_mu**2
    h = ((2.0 * np.sqrt(1.0 + 12.0 * big_a) - 3.0 * big_a - 2.0)
         / (4.0 - big_a) / n)
    # Cap the vertex for roundoff, keeping the contour right of the pole.
    phi_bar = (sq_mu / 5.0 + sq_phi) ** 2
    mu_c, h_c, n_c = _capped_contour(phi_bar)
    n_c = np.where(phi_bar < _MU_MAX, n_c, math.inf)
    big = mu > _MU_MAX
    return (np.where(big, mu_c, mu), np.where(big, h_c, h),
            np.where(big, n_c, n))


def _contour(a: float, mu, h, n: int):
    """Nodes ``s_k^a`` and weights of ``E_a(z) = sum_k w_k / (s_k^a - z)``.

    The nodes are ``s_k = mu (1 + i h k)^2``, ``|k| <= n``; the weights hold
    ``h / (2 pi i) e^{s_k} s_k^(a-1) s'_k``.  ``mu`` and ``h`` may be column
    arrays, one contour per row.
    """
    u = h * np.arange(-n, n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    sa = s**a
    w = (h / math.pi) * mu * (1.0 + 1j * u) * np.exp(s) * sa / s
    return sa, w


@lru_cache(maxsize=256)
def _shared_contour(a: float):
    """The contour of every ``z`` without a principal-sheet pole."""
    mu, h, n = _capped_contour(0.0)
    sa, w = _contour(a, mu, float(h), int(n))
    sa.flags.writeable = w.flags.writeable = False
    return sa, w


@lru_cache(maxsize=256)
def _folded_contour(a: float):
    """The shared contour folded onto its nodes ``k >= 0``, as real arrays.

    Returns ``(Re s^a, (Im s^a)^2, Re w, Im w * Im s^a)``, with the weights
    of ``k >= 1`` doubled for their conjugate partners ``-k``.
    """
    sa, w = _shared_contour(a)
    k0 = sa.size // 2
    sa, w = sa[k0:], w[k0:].copy()
    w[1:] *= 2.0
    folded = (np.ascontiguousarray(sa.real), sa.imag**2,
              np.ascontiguousarray(w.real), w.imag * sa.imag)
    for v in folded:
        v.flags.writeable = False
    return folded


def _ml_fold(a: float, x: np.ndarray) -> np.ndarray:
    """``E_a(x)`` for a flat real array, ``-_FOLD_MAX < x <= 0``, ``a < 1``.

    Each row is summed on its own, so a value does not depend on the
    other elements or the chunking.
    """
    sr, si2, wr, wisi = _folded_contour(a)
    out = np.empty(x.shape)
    rows = _FOLD_BYTES // sr.nbytes
    for lo in range(0, x.size, rows):
        d = sr - x[lo:lo + rows, None]
        num = d * wr
        num += wisi
        d *= d
        d += si2
        num /= d
        num.sum(axis=1, out=out[lo:lo + rows])
    out[x == 0.0] = 1.0
    return out


def _ml_slope(a: float, z: float) -> float:
    """``dE_a/dz = sum_k w_k / (s_k^a - z)^2`` at one real ``z <= 0``.

    Folded as in :func:`_ml_fold`: ``Re[w / (d + i s_i)^2] =
    (w_r (d^2 - s_i^2) + 2 w_i s_i d) / (d^2 + s_i^2)^2``.  ``exp(z)`` at
    ``a = 1``.
    """
    if a == 1.0:
        return math.exp(z)
    sr, si2, wr, wisi = _folded_contour(a)
    d = sr - z
    d2 = d * d
    den = d2 + si2
    return float(np.sum((wr * (d2 - si2) + 2.0 * wisi * d) / den / den))


def _ml_real(a: float, x: np.ndarray) -> np.ndarray:
    """``E_a(x)`` for a flat real array, ``0 < a < 1``."""
    fold = (x <= 0.0) & (x > -_FOLD_MAX)
    if fold.all():
        return _ml_fold(a, x)
    out = np.empty(x.shape)
    out[fold] = _ml_fold(a, x[fold])
    rest = ~fold
    out[rest] = _ml_contour(a, x[rest].astype(complex)).real
    return out


def _ml_contour(a: float, z: np.ndarray) -> np.ndarray:
    """``E_a(z)`` for a flat complex array, ``0 < a < 1``."""
    out = np.empty(z.shape, dtype=complex)
    # The pole s* = r e^{i theta / a} and phi = (Re s* + |s*|) / 2, the
    # vertex of the parabola through it.  r is capped so that r * 0 stays 0.
    theta = np.angle(z)
    r = np.minimum(np.abs(z) ** (1.0 / a), np.finfo(float).max)
    phi = r * np.cos(theta / (2.0 * a)) ** 2
    pole = (np.abs(theta) <= a * math.pi) & (phi > _PHI_MIN)

    # Row sums, not `@ w`: OpenBLAS runs the complex mat-vec on its thread
    # pool, which triples the cost of a fit when the other core is busy.
    sa, w = _shared_contour(a)
    free = np.flatnonzero(~pole)
    for lo in range(0, free.size, _ML_CHUNK):
        rows = free[lo:lo + _ML_CHUNK]
        out[rows] = (w / (sa - z[rows, None])).sum(axis=1)

    rows = np.flatnonzero(pole)
    if rows.size:
        phi = phi[rows]
        mu_l, h_l, n_l = _contour_left_of_pole(phi)
        mu_r, h_r, n_r = _contour_right_of_pole(phi)
        n_r = np.where(phi < _MU_MAX, n_r, math.inf)
        left = n_l <= n_r
        mu, h, n = (np.where(left, mu_l, mu_r), np.where(left, h_l, h_r),
                    np.where(left, n_l, n_r))
        for lo in range(0, rows.size, _ML_CHUNK):
            c = slice(lo, lo + _ML_CHUNK)
            n_max = int(n[c].max())
            sa, w = _contour(a, mu[c, None], h[c, None], n_max)
            w[np.abs(np.arange(-n_max, n_max + 1)) > n[c, None]] = 0.0
            out[rows[c]] = (w / (sa - z[rows[c], None])).sum(axis=1)
        # A pole right of the contour adds its residue e^{s*} / a.
        rows = rows[left]
        out[rows] += np.exp(r[rows] * np.exp(1j * theta[rows] / a)) / a
    out[z == 0.0] = 1.0
    return out


def mittag_leffler(alpha, z):
    """Mittag-Leffler ``E_alpha(z) = sum_n z^n / Gamma(alpha n + 1)``.

    ``z`` may be a real or complex scalar (returns ``float`` or ``complex``)
    or an array of any shape (returns a float or complex array of that
    shape); real ``z`` gives real values, and values beyond float64 range
    return ``inf``.  One non-finite element raises :class:`DomainError`.
    ``alpha = 1`` is ``exp``.  Otherwise real ``z <= 0`` sums the shared
    contour folded onto 28 nodes in real arithmetic; real ``z > 0`` (or
    below ``-1e150``) and complex ``z`` take the complex contour sum, with
    the pole residue where there is one.  See the module docstring.
    """
    a = _order(alpha).alpha
    flat, shape = _points(z, "mittag_leffler z")
    is_complex = np.iscomplexobj(flat)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if a == 1.0:
            out = np.exp(flat)
        elif is_complex:
            out = _ml_contour(a, flat)
        else:
            out = _ml_real(a, flat)
    if is_complex:
        out.imag[flat.imag == 0.0] = 0.0
    return _shaped(out, shape)


# --------------------------------------------------------------------------
# M-Wright
# --------------------------------------------------------------------------

# Largest series term allowed before cancellation would eat into the 1e-12
# absolute target (error ~ max_term * machine eps * O(10)).
_SERIES_MAX_TERM = 1.0e3


@lru_cache(maxsize=256)
def _mw_series_coeffs(a: float):
    """(ln |1/Gamma(1-a-a n)|, signed parity) without overflow.

    Negative arguments go through the reflection formula
    1/Gamma(w) = Gamma(1-w) sin(pi w)/pi, evaluated in logs.  The length
    scales like 70/(1-a): admissible rows peak at index <= ~7/(1-a) and the
    tail decays as exp(-(1-a) n ln n).
    """
    lgamma = np.vectorize(math.lgamma, otypes=[float])
    n = np.arange(min(40000, int(80 + 70.0 / (1.0 - a))))
    w = 1.0 - a - a * n
    ln_rg = np.empty(w.shape)
    sgn = np.empty(w.shape)
    pos = w > 0
    ln_rg[pos] = -lgamma(w[pos])
    sgn[pos] = 1.0
    neg = ~pos
    r = w[neg] - np.round(w[neg])
    sin_r = np.sin(math.pi * r)
    with np.errstate(divide="ignore"):
        ln_rg[neg] = lgamma(1.0 - w[neg]) + np.log(np.abs(sin_r)) - math.log(math.pi)
    sgn[neg] = np.sign(sin_r) * np.where(np.round(w[neg]) % 2 == 0, 1.0, -1.0)
    sgn *= np.where(n % 2 == 0, 1.0, -1.0)  # (-z)^n alternation
    ln_fact = lgamma(n + 1.0)
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
    vals[zero] = _rgamma(1.0 - a)
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
    a = _order(alpha).alpha
    flat, shape = _points(z, "m_wright z", 0.0)
    if a == 1.0:
        raise DomainError("M_1 degenerates to a point mass; alpha must be < 1")
    out = np.empty(flat.shape)
    for lo in range(0, flat.size, _MW_CHUNK):
        zc = flat[lo:lo + _MW_CHUNK]
        vals, ok = _mw_series_batch(a, zc)
        if not np.all(ok):
            vals[~ok] = _mw_integral_batch(a, zc[~ok])
        out[lo:lo + _MW_CHUNK] = vals
    return _shaped(out, shape)


def m_wright_asymptotic(alpha, z: float) -> float:
    """Leading-order large-z asymptotic of ``M_alpha``.

    ``M_alpha(z) ~ A z^((alpha-1/2)/(1-alpha)) exp(-B z^(1/(1-alpha)))`` with
    ``A = (2 pi (1-alpha))^{-1/2} alpha^((alpha-1/2)/(1-alpha))`` and
    ``B = (1-alpha) alpha^(alpha/(1-alpha))``.  Used only as a tail-mass
    estimate (truncation of subordination integrals); for values use
    :func:`m_wright`.
    """
    a = _order(alpha).alpha
    if a == 1.0:
        raise DomainError("M_1 degenerates to a point mass; alpha must be < 1")
    z = _nonneg_float(z, "asymptotic form z", strict=True)
    one = 1.0 - a
    p = (a - 0.5) / one
    amp = a**p / math.sqrt(2.0 * math.pi * one)
    b = one * a ** (a / one)
    with np.errstate(over="ignore", under="ignore"):
        return float(amp * z**p * math.exp(-b * z ** (1.0 / one)))
