"""Special functions of fractional relaxation.

Building blocks used by every other module:

* :func:`gamma_fn` -- Euler Gamma with explicit pole errors,
* :func:`mittag_leffler` -- one-parameter Mittag-Leffler ``E_alpha(z)`` for
  ``0 < alpha <= 1`` and real or complex ``z``, scalar or array,
* :func:`ml_partial_sum` -- truncated Taylor sum plus its a-priori remainder
  bound ``|z|^(N+1) / Gamma(alpha (N+1) + 1)``,
* :func:`m_wright` -- the M-Wright (Mainardi) function ``M_alpha(z)`` for
  ``z >= 0``, ``0 < alpha < 1``, scalar or array.

``E_alpha(z) = sum_n z^n / Gamma(alpha n + 1)`` is entire, but in float64 its
Taylor series is useless for moderate ``|z|`` off the positive axis: at
``z = -5``, ``alpha = 0.5`` the largest term is ~5e9.  It is computed instead
as the inverse Laplace transform of ``s^(alpha-1) / (s^alpha - z)``, by the
trapezoid rule on the parabola ``s = mu (1 + i u)^2`` with the ``(mu, h, N)``
of Garrappa (SIAM J. Numer. Anal. 53 (2015) 1350) for a 1e-15 target.  The
one pole on the principal sheet, ``s* = z^(1/alpha)`` for
``|arg z| <= alpha pi``, adds its residue ``e^{s*} / alpha`` when it lies
right of the contour.  Every ``z`` without a pole, the negative axis
included, shares one 55-node contour.  A pole takes the shorter of two
contours: Garrappa's between the origin and the pole, or, for ``phi(s*)``
up to 0.27, the shared contour's vertex ``mu`` with the step and length
that keep it right of the pole; at most 327 nodes.

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

``M_alpha(z)``, the density-generating function of the inverse stable
subordinator, is the Hankel integral ``(1/2 pi i) int e^(s - z s^alpha)
s^(alpha-1) ds`` on ``s = S rho(theta) e^(i theta)``, ``|theta| < pi``,
``rho = (sin(alpha theta) / (alpha sin theta))^(1/(1-alpha))``.  For
``S = s* = (alpha z)^(1/(1-alpha))`` this is the steepest-descent path
through the saddle ``s*``; the exponent is real on it, and the integral is
the positive Zolotarev form, whose saddle-point value is the
stretched-exponential tail of :func:`m_wright_asymptotic`.  Below
``s* = 1/2`` the path keeps ``S = 1/2`` and does not depend on ``z``, so its
nodes and weights are cached per ``alpha``.  Against 40-digit mpmath, for
alpha in [1e-6, 0.999], the relative error is at most 1e-12 where
``M >= 1e-30`` and 1.3e-12 down to ``M = 1e-300``.
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
# Right of a pole at phi, the capped contour is sized for the parabola
# through phi_bar = (_POLE_GAP + sqrt(phi))^2: Garrappa's unbounded-region
# search (p = 1) gives a gap sqrt(mu)/5 in [0.48, 0.57] wherever that
# region is the shorter, and a mu above _MU_MAX, which the cap replaces.
_POLE_GAP = 0.5
# Rows per complex contour product: bounds the rows x nodes temporaries
# (about 2.7 MB at the longest pole contour, 327 nodes).  The real-axis fold
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
        phi_bar = (_POLE_GAP + np.sqrt(phi)) ** 2
        mu_r, h_r, n_r = _capped_contour(phi_bar)
        n_r = np.where(phi_bar < _MU_MAX, n_r, math.inf)
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
# M-Wright: one Hankel integral on the steepest-descent path
# --------------------------------------------------------------------------

# Trapezoid rules in v on (0, inf), offset by half a step.  Cached path
# (S = 1/2): tan(theta/2) = v / sqrt(S), 358 nodes of 0.07.  Saddle path:
# tan(theta/2) = sinh(v) / sqrt(S), steps of 0.06, or of 0.03 above
# alpha = 0.9, where the integrand falls off three exponentials deep in v
# (0.06 leaves 1e-11 at alpha = 0.95, 6e-8 at 0.999).  Its width in theta
# is 1 / sqrt((1-alpha) S), so v runs to asinh(5 / sqrt(1-alpha)) + 1/2,
# at least 4.5 (6 left 5e-5 at alpha = 0.9999).  Chunks of 128 points bound
# the points x nodes temporaries.
_MW_S_MIN = 0.5
_MW_FIXED_H, _MW_FIXED_N = 0.07, 358
_MW_CHUNK = 128


def _mw_path(a: float, t: np.ndarray):
    """``(theta, sin theta, cos theta, sin a theta, ln rho)`` at
    ``t = tan(theta / 2)``.

    Above ``a = 1/2`` (``e = 1 - a``) the log takes ``sin(a theta) / sin
    theta = 1 - 2 sin(e theta/2) (sin(e theta/2) + cos(e theta/2) cot
    theta)`` through ``log1p``, exact as ``a -> 1``; below, the plain ratio
    is exact as ``a -> 0``.  Each form loses digits at the other end.
    """
    e = 1.0 - a
    theta = 2.0 * np.arctan(t)
    sin_t = 2.0 * t / (1.0 + t * t)
    cos_t = (1.0 - t * t) / (1.0 + t * t)
    sin_a = np.sin(a * theta)
    if a > 0.5:
        sh, ch = np.sin(0.5 * e * theta), np.cos(0.5 * e * theta)
        log_rho = (np.log1p(-2.0 * sh * (sh + ch * cos_t / sin_t))
                   - math.log1p(-e)) / e
    else:
        log_rho = np.log(sin_a / (a * sin_t)) / e
    return theta, sin_t, cos_t, sin_a, log_rho


@lru_cache(maxsize=256)
def _mw_fixed_path(a: float):
    """``s_k^a`` and ``l_k = ln[(h/pi) e^{s_k} s_k^(a-1) ds/dv]`` on the
    cached path: ``M_a(x) = sum_k Im e^{l_k - x s_k^a}``, the lower half of
    the path being the conjugate of the upper.  ``d ln rho / d theta`` is
    ``(a cot(a theta) - cot theta) / (1 - a)``, its numerator taken in the
    form that keeps its digits at each end, as in :func:`_mw_path`."""
    e, rs = 1.0 - a, math.sqrt(_MW_S_MIN)
    t = _MW_FIXED_H * (np.arange(_MW_FIXED_N) + 0.5) / rs
    theta, sin_t, cos_t, sin_a, log_rho = _mw_path(a, t)
    if a > 0.5:
        num = np.sin(e * theta) - e * np.cos(a * theta) * sin_t
    else:
        num = a * np.cos(a * theta) * sin_t - cos_t * sin_a
    log_s = math.log(_MW_S_MIN) + log_rho + 1j * theta
    dtheta = 2.0 * _MW_FIXED_H / (math.pi * rs) / (1.0 + t * t)
    log_w = (np.exp(log_s) + a * log_s
             + np.log((num / (e * sin_a * sin_t) + 1j) * dtheta))
    sa = np.exp(a * log_s)
    sa.flags.writeable = log_w.flags.writeable = False
    return sa, log_w


def _mw_fixed(a: float, x: np.ndarray) -> np.ndarray:
    sa, log_w = _mw_fixed_path(a)
    return np.exp(log_w - x[:, None] * sa).imag.sum(axis=1)


def _mw_saddle(a: float, x: np.ndarray) -> np.ndarray:
    """``M_a(x)``, ``s* >= 1/2``: ``S^a / (pi e) int_0^pi rho^a sin(e theta)
    / sin(theta) exp(-S rho sin(e theta) / sin(a theta)) dtheta``, a sum of
    positive terms.  ``ln S = (ln a + ln x) / e``: rounding ``a x`` would
    cost 1e-16 / e in ``ln S``.  It is capped at 700, where all terms
    underflow.
    """
    e = 1.0 - a
    h = 0.06 if a <= 0.9 else 0.03
    v_max = max(4.5, math.asinh(5.0 / math.sqrt(e)) + 0.5)
    v = h * (np.arange(round(v_max / h)) + 0.5)
    log_s = np.minimum((np.log(x) + math.log(a)) / e, 700.0)[:, None]
    rs = np.exp(0.5 * log_s)
    t = np.sinh(v) / rs
    theta, sin_t, _, sin_a, log_rho = _mw_path(a, t)
    sin_e = np.sin(e * theta)
    f = np.exp(a * (log_s + log_rho) - rs * rs * np.exp(log_rho) * sin_e / sin_a)
    f *= sin_e / sin_t * np.cosh(v) / rs / (1.0 + t * t)
    return f.sum(axis=1) * (2.0 * h / (math.pi * e))


def m_wright(alpha, z):
    """M-Wright (Mainardi) function ``M_alpha(z)`` for ``z >= 0``.

    ``M_{1/2}(z) = exp(-z^2/4)/sqrt(pi)``; ``M_alpha(0) = 1/Gamma(1-alpha)``.
    ``alpha = 1`` is a delta distribution and raises :class:`DomainError`.
    One Hankel integral on the steepest-descent path through the saddle
    ``s* = (alpha z)^(1/(1-alpha))``, or where ``s* < 1/2`` on a path cached
    per ``alpha`` (see the module docstring).  ``z`` may be a scalar
    (returns ``float``) or an array (returns an array of the same shape).
    """
    a = _order(alpha).alpha
    flat, shape = _points(z, "m_wright z", 0.0)
    if a == 1.0:
        raise DomainError("M_1 degenerates to a point mass; alpha must be < 1")
    # Below alpha = 1e-300, alpha theta underflows on the path, and M_alpha
    # equals M_1e-300 = e^(-z) to double precision.
    a = max(a, 1e-300)
    out = np.empty(flat.shape)
    saddle = a * flat >= _MW_S_MIN ** (1.0 - a)
    with np.errstate(over="ignore", under="ignore"):
        for rows, path in ((np.flatnonzero(~saddle), _mw_fixed),
                           (np.flatnonzero(saddle), _mw_saddle)):
            for lo in range(0, rows.size, _MW_CHUNK):
                chunk = rows[lo:lo + _MW_CHUNK]
                out[chunk] = path(a, flat[chunk])
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
    return math.exp(_log_m_wright_tail(
        a, _nonneg_float(z, "asymptotic form z", strict=True)))


def _log_m_wright_tail(a: float, z: float) -> float:
    """The logarithm of :func:`m_wright_asymptotic` for 0 < a < 1 and z > 0;
    -inf where ``z^(1/(1-a))`` overflows, the tail being below any double."""
    one = 1.0 - a
    try:
        decay = one * a ** (a / one) * z ** (1.0 / one)
    except OverflowError:
        return -math.inf
    return ((a - 0.5) / one * math.log(a * z)
            - 0.5 * math.log(2.0 * math.pi * one) - decay)
