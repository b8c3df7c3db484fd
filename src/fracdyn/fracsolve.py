"""Fractional Adams-Moulton solvers and the Mittag-Leffler propagator.

Solves the Caputo-fractional master equation

    D_t^alpha rho(t) = L rho(t),   0 < alpha <= 1,

in its equivalent Volterra form rho(t) = rho(0) + (1/Gamma(alpha))
int_0^t (t-s)^(alpha-1) L rho(s) ds, on a uniform grid t_n = n h.

Two weight schemes are provided (:class:`WeightScheme`):

* ``StandardDFF`` — the standard fractional Adams scheme: predictor weights
  b_j = (j+1)^alpha - j^alpha with prefactor h^alpha/Gamma(alpha+1) and
  corrector weights a_m = (m+1)^(alpha+1) - 2 m^(alpha+1) + (m-1)^(alpha+1)
  with prefactor h^alpha/Gamma(alpha+2).  The corrector is applied in
  implicit form: the new-point weight multiplies the unknown state, so each
  step solves (I - pref*L) rho_{n+1} = rho_0 + pref * (history sum); the left
  factor is inverted once and reused across all steps.  At alpha = 1 this
  reduces exactly to the classical trapezoid (Adams-Moulton-2) rule.

* ``PaperPrinted`` — predictor weights b_j = (j+1)^(1-alpha) - j^(1-alpha)
  and corrector weights a_m = (m+1)^alpha - 2 m^alpha + (m-1)^alpha (with
  endpoint weights a_0 = 1 and a_{-1} = 1 on the predicted point), both with
  prefactor h^alpha/Gamma(1+alpha), applied in explicit
  predict-evaluate-correct form.  Interior corrector weights are negative for
  alpha < 1 (e.g. sqrt(2)-2 at alpha = 1/2) and the scheme loses the
  O(h^(1+alpha)) order; it is retained for comparison and selected runs only.
  The alpha -> 1 limit is taken as the classical rectangle/trapezoid pair,
  whose corrector weights the predicted point by 1/2.

:func:`fam_solve_soe` replaces the dense history sum with Q exponential
accumulators driven by a :class:`~fracdyn.kernels.SOEKernel`: the kernel is
kept exact on the two most recent intervals (lag <= 2h) and approximated by
sum_q w_q e^(-xi_q tau) beyond, giving O(Q) work per step instead of O(n).

:func:`ml_propagate` evaluates the exact solution rho(t) = E_alpha(t^alpha M)
rho(0) through the eigendecomposition of the superoperator.

One set of solver cores serves both modes: each integrates D^alpha u = M u
for an m x m operator M, the d^2 x d^2 superoperator acting on vec(rho) in
matrix mode and M = [[-lambda]] in scalar mode (m = 1).  Both cores apply
every corrector weight the same way, the new point's included.  Matrix mode
shares the flow layer of :mod:`fracdyn.lindblad` with the subordination
routes: the initial state is checked and M built by one helper, the
eigenbasis of :func:`ml_propagate` comes from one rule, and the states of a
trajectory are admitted once, as one stack, after the core has run.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import DomainError, NumericalInstabilityError, ValidationError
from .kernels import SOEKernel, _coerce_enum
from .lindblad import (
    _EIG_COND_MAX,
    DensityMatrix,
    GKSLGenerator,
    Superoperator,
    _admit_flow,
    _eigenbasis,
    _flow_operator as _gksl_flow,
    _nonneg_float,
    unvec,
)
from .specfun import FractionalOrder, _alpha_value, mittag_leffler

__all__ = [
    "WeightScheme",
    "FracTrajectory",
    "predictor_weights",
    "corrector_weights",
    "fam_solve",
    "fam_solve_soe",
    "ml_propagate",
]

_AlphaLike = Union[float, FractionalOrder]

DEFAULT_MAX_HORIZON = 1.0e6

# Per-step state-defect thresholds (matrix mode).
_STATE_WARN_TOL = 1e-7
_STATE_FAIL_TOL = 1e-5


class WeightScheme(enum.Enum):
    """Weight-set selector for the fractional Adams-Moulton solver."""

    PaperPrinted = "paper_printed"
    StandardDFF = "standard_dff"


# ----------------------------------------------------------------------------
# Weight sets
# ----------------------------------------------------------------------------

def predictor_weights(
    scheme: Union[WeightScheme, str], alpha: _AlphaLike, n: int
) -> np.ndarray:
    """Predictor weights [b_0 ... b_n] for the requested scheme."""
    scheme = _coerce_enum(WeightScheme, scheme, "weight scheme")
    a = _alpha_value(alpha)
    if n < 0:
        raise ValidationError("n must be >= 0")
    j = np.arange(n + 1, dtype=float)
    if a == 1.0:
        # Both formulas degenerate at alpha = 1; the limit is the rectangle
        # rule with unit weights.
        return np.ones(n + 1)
    if scheme is WeightScheme.PaperPrinted:
        p = 1.0 - a
    else:
        p = a
    return (j + 1.0) ** p - j**p


def _history_weights(
    scheme: WeightScheme, a: float, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Corrector weights in the solvers' layout, for the steps up to n.

    v[i] (i = 0..n) weights the state i grid points behind the new one, the
    same at every step; oldest[k] weights the initial point at step
    t_k -> t_{k+1} (k = 0..n).
    """
    if a == 1.0:
        # Classical trapezoid limits: [1, 2, ..., 2, 1] against h/Gamma(3)
        # for StandardDFF, [1/2, 1, ..., 1, 1/2] against h for PaperPrinted.
        standard = scheme is WeightScheme.StandardDFF
        v = np.full(n + 1, 2.0 if standard else 1.0)
        v[0] = 1.0 if standard else 0.5
        return v, np.full(n + 1, 1.0 if standard else 0.5)
    k = np.arange(n + 2, dtype=float)
    v = np.ones(n + 1)
    if scheme is WeightScheme.StandardDFF:
        # a_i = (i+1)^(a+1) - 2 i^(a+1) + (i-1)^(a+1); oldest n^(a+1)
        # - (n - a)(n+1)^a.
        p = k ** (a + 1.0)
        v[1:] = p[2:] - 2.0 * p[1:-1] + p[:-2]
        oldest = p[:-1] - (k[:-1] - a) * k[1:] ** a
    else:
        # a_m = (m+1)^a - 2 m^a + (m-1)^a for m >= 1, a_0 = a_{-1} = 1:
        # v = [1, a_0, a_1, ...], oldest = [a_0, a_1, ...].
        p = k**a
        second = p[2:] - 2.0 * p[1:-1] + p[:-2]
        v[2:] = second[:-1]
        oldest = np.concatenate(([1.0], second))
    return v, oldest


def corrector_weights(
    scheme: Union[WeightScheme, str], alpha: _AlphaLike, n: int
) -> np.ndarray:
    """Corrector weights [c_0 ... c_{n+1}] for the step t_n -> t_{n+1}.

    Index i is the distance from the new grid point t_{n+1}: c[0] weights the
    new point (the implicit unknown for ``StandardDFF``, the predicted value
    for ``PaperPrinted``), c[i] the state at t_{n+1-i}, and c[n+1] the initial
    point t_0.  The associated prefactor is h^alpha/Gamma(alpha+2) for
    ``StandardDFF`` and h^alpha/Gamma(1+alpha) for ``PaperPrinted``.
    """
    scheme = _coerce_enum(WeightScheme, scheme, "weight scheme")
    a = _alpha_value(alpha)
    if n < 0:
        raise ValidationError("n must be >= 0")
    v, oldest = _history_weights(scheme, a, n)
    return np.append(v, oldest[n])


# ----------------------------------------------------------------------------
# Trajectory container
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class FracTrajectory:
    """Solution of a fractional master equation on a uniform grid t_n = n h."""

    alpha: FractionalOrder
    h: float
    scheme: WeightScheme
    states: Union[np.ndarray, Tuple[DensityMatrix, ...]]

    @property
    def is_scalar(self) -> bool:
        return isinstance(self.states, np.ndarray)

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1

    def times(self) -> np.ndarray:
        return self.h * np.arange(len(self.states))

    def final(self):
        return self.states[-1]

    def _matrix_table(self) -> Tuple[list, np.ndarray]:
        """Column names and (N + 1, 1 + 2 d^2) float table of a matrix
        trajectory: t, then re/im of the row-major state entries."""
        d = self.states[0].dim
        columns = ["t"] + [f"{part}_{i}{j}" for i in range(d)
                           for j in range(d) for part in ("re", "im")]
        stack = np.array([rho.entries for rho in self.states],
                         dtype=np.complex128)
        table = np.empty((len(stack), 1 + 2 * d * d))
        table[:, 0] = self.times()
        table[:, 1:] = stack.reshape(len(stack), -1).view(np.float64)
        return columns, table

    def to_csv(self, path) -> None:
        """Write the trajectory as CSV.

        Scalar mode: header ``t,re_u,im_u,abs_u``.  Matrix mode: header
        ``t,re_00,im_00,...`` with row-major state entries.
        """
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if self.is_scalar:
                writer.writerow(["t", "re_u", "im_u", "abs_u"])
                for t, u in zip(self.times(), self.states):
                    z = complex(u)
                    writer.writerow([repr(float(t)), repr(z.real),
                                     repr(z.imag), repr(abs(z))])
            else:
                columns, table = self._matrix_table()
                writer.writerow(columns)
                writer.writerows(table.tolist())


# ----------------------------------------------------------------------------
# Solver cores
# ----------------------------------------------------------------------------

# Each core integrates D^alpha u = M u for an m x m operator M: the d^2 x d^2
# superoperator in matrix mode, M = [[-lambda]] in scalar mode.  States and
# right-hand sides g = M u are stored as rows of (N + 1, m) arrays.  Per-step
# products use ndarray.dot, whose call overhead on these small operands is
# well below that of the @ operator.
#
# The dense cores step in real form: each complex row is held as its (2m,)
# float view (re, im interleaved) and each operator as its _real_form.  The
# history weights are real, so the history dot is a real gemv over the
# (n, 2m) float history, with half the flops of a complex one, and no step
# converts between complex and float.

# Steps composed into one affine map by the SOE core; fewer when the block's
# rows, B (1 + (Q + 2) m) elements for m x m operators, would exceed
# _SOE_ROWS_MAX (large d, where they grow like m^2).
_SOE_BLOCK = 64
_SOE_ROWS_MAX = 1 << 21
# Long history sums are taken in pieces of at most _DOT_CHUNK real elements,
# so that no per-step gemv reaches OpenBLAS's thread pool: one handoff per
# step costs far more than the dot itself (milliseconds on a busy core).
# OpenBLAS 0.3.31 (numpy 2.4 wheels) hands a complex gemv of more than 9216
# elements to the pool, but keeps a real gemv of these shapes on one thread
# up to at least 400k elements.
_DOT_CHUNK = 1 << 16


def _history_dot(w, g):
    """w @ g for a 1-D real w and an (n, 2m) real history g.

    Taken in pieces of at most _DOT_CHUNK elements of g.
    """
    rows = _DOT_CHUNK // g.shape[1]
    if len(w) <= rows:
        return w.dot(g)
    return sum(w[i: i + rows].dot(g[i: i + rows])
               for i in range(0, len(w), rows))


def _real_form(A):
    """The real (2m, 2m) matrix that maps the float view of a complex
    m-vector x to the float view of A x."""
    m = len(A)
    out = np.empty((2 * m, 2 * m))
    out[0::2, 0::2] = A.real
    out[0::2, 1::2] = -A.imag
    out[1::2, 0::2] = A.imag
    out[1::2, 1::2] = A.real
    return out


def _dense_implicit_core(M, u0, pref, vr, oldest, n_steps):
    # StandardDFF: (I - pref v_0 M) u_{n+1} = u0 + pref * history.  The loop
    # advances r_{n+1} = (I - pref v_0 M) u_{n+1} and g only; u is recovered
    # from r in one product afterwards.
    left_inv = np.linalg.inv(np.eye(len(u0)) - (pref * vr[-1]) * M)
    ml = _real_form(M @ left_inv)
    r = np.empty((n_steps + 1, 2 * len(u0)))
    g = np.empty_like(r)
    g0 = M @ u0
    g[0] = g0.view(np.float64)
    # r_{n+1} starts from its initial-point terms; step n adds the history.
    r[1:] = (u0 + (pref * oldest)[:, None] * g0).view(np.float64)
    # vr[j] = v_{N-j}, so vr[N-n:N] weights g_1..g_n in one history dot.
    vp = pref * vr
    big_n = len(vr) - 1
    for n in range(n_steps):
        rn = r[n + 1]
        rn += _history_dot(vp[big_n - n: big_n], g[1: n + 1])
        ml.dot(rn, out=g[n + 1])
    u = r.view(np.complex128) @ left_inv.T
    u[0] = u0
    return u


def _dense_explicit_core(M, u0, pref, vr, oldest, br, n_steps):
    # PaperPrinted: predict with b-weights, correct explicitly (v_0 on pred).
    u = np.empty((n_steps + 1, 2 * len(u0)))
    g = np.empty_like(u)
    uf0 = u0.view(np.float64)
    u[0] = uf0
    g0 = M @ u0
    g[0] = g0.view(np.float64)
    u[1:] = (u0 + (pref * oldest)[:, None] * g0).view(np.float64)
    mr = _real_form(M)
    pm = (pref * vr[-1]) * mr
    vp = pref * vr
    bp = pref * br
    big_n = len(vr) - 1
    for n in range(n_steps):
        pred = uf0 + _history_dot(bp[big_n - n: big_n + 1], g[: n + 1])
        un = u[n + 1]
        un += _history_dot(vp[big_n - n: big_n], g[1: n + 1])
        un += pm.dot(pred)
        mr.dot(un, out=g[n + 1])
    return u.view(np.complex128)


def _soe_core(M, u0, pref, alpha_w, a2, b2, w, eh, phi0, phi1, n_steps):
    # StandardDFF + SOE history: near field (lag <= 2h) exact, far field via
    # Q exponential accumulators H_q (m-vectors), updated from step 1 on as
    # H_q <- eh_q (H_q + eh_q (phi1_q g_{n-1} + phi0_q g_n)).
    #
    # From step 1 on, u_{n+1} = L (u0 + (pref alpha + a2) g_n + b2 g_{n-1}
    # + sum_q w_q H_q) with L = (I - pref M)^(-1), and the state
    # x_n = (1, g_n, g_{n-1}, H_1..H_Q) advances by one fixed affine map.  A
    # block of B steps is then u_{n+k} = c_k + P_k g_n + R_k g_{n-1}
    # + sum_q W_kq H_q, k = 1..B, where k = 1 reads off the step above and
    #   c' = c + PML u0,
    #   P' = (pref alpha + a2) PML + R + sum_q eh_q^2 phi0_q W_q,
    #   R' = b2 PML + sum_q eh_q^2 phi1_q W_q,
    #   W'_q = w_q PML + eh_q W_q,
    # with PML = P M L.  The accumulators jump ahead in closed form,
    # H_{n+B} = eh^B H_n + sum_j m_j g_{n-1+j}.  The block mat-vecs go
    # through einsum rather than BLAS: OpenBLAS would hand them to its thread
    # pool, which costs milliseconds per call on a busy core.
    m = len(u0)
    left_inv = np.linalg.inv(np.eye(m) - pref * M)
    u = np.empty((n_steps + 1, m), dtype=np.complex128)
    g = np.empty_like(u)
    u[0] = u0
    g[0] = M @ u0
    u[1] = left_inv.dot(u0 + pref * alpha_w * g[0])
    g[1] = M.dot(u[1])
    if n_steps == 1:
        return u
    n_modes = len(w)
    near = pref * alpha_w + a2
    width = 1 + (2 + n_modes) * m
    block = max(1, min(_SOE_BLOCK, n_steps - 1, _SOE_ROWS_MAX // (m * width)))
    ml = M.dot(left_inv)
    # rows[k] = [c, P, R, W] acts on x = (1, g_n, g_{n-1}, H.T.ravel()), with
    # W[:, :, q] = W_q; the accumulators H (Q x m) live in x.
    rows = np.empty((block, m, width), dtype=np.complex128)
    c = left_inv.dot(u0)
    P = near * left_inv
    R = b2 * left_inv
    W = left_inv[:, :, None] * w
    with np.errstate(under="ignore"):
        eh2_phi0 = eh * eh * phi0
        eh2_phi1 = eh * eh * phi1
        for k in range(block):
            rows[k, :, 0] = c
            rows[k, :, 1: 1 + m] = P
            rows[k, :, 1 + m: 1 + 2 * m] = R
            rows[k, :, 1 + 2 * m:] = W.reshape(m, m * n_modes)
            pml = P.dot(ml)
            c, P, R, W = (c + pml.dot(u0),
                          near * pml + R + W.dot(eh2_phi0),
                          b2 * pml + W.dot(eh2_phi1),
                          pml[:, :, None] * w + eh * W)
        # m_j weights g_{n-1+j}: phi1 eh^(B+1-j) for j < B, phi0 eh^(B+2-j)
        # for j >= 1.
        powers = eh[:, None] ** np.arange(block + 1, 1, -1)
        decay = eh**block
    mix = np.zeros((n_modes, block + 1))
    mix[:, :block] = phi1[:, None] * powers
    mix[:, 1:] += phi0[:, None] * powers
    x = np.zeros(width, dtype=np.complex128)
    x[0] = 1.0
    hist = x[1 + 2 * m:].reshape(m, n_modes)  # H.T, updated in place
    for n in range(1, n_steps, block):
        stop = min(n + block, n_steps)
        x[1: 1 + m] = g[n]
        x[1 + m: 1 + 2 * m] = g[n - 1]
        u[n + 1: stop + 1] = np.einsum("kij,j->ki", rows[: stop - n], x)
        g[n + 1: stop + 1] = u[n + 1: stop + 1].dot(M.T)
        if stop < n_steps:
            hist[:] = decay * hist + np.einsum("qj,ji->iq", mix,
                                               g[n - 1: stop])
    return u


# ----------------------------------------------------------------------------
# Common solve machinery
# ----------------------------------------------------------------------------

def _soe_phi_weights(xi: np.ndarray, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Linear-interpolation integrals against e^(-xi tau) over one step.

    phi0 = (1/h) int_0^h e^(-xi s) (h - s) ds,
    phi1 = (1/h) int_0^h e^(-xi s) s ds,
    evaluated stably for xi h -> 0.
    """
    x = xi * h
    phi0 = np.empty_like(x)
    phi1 = np.empty_like(x)
    small = x < 1e-3
    xs = x[small]
    phi0[small] = h * (0.5 - xs / 6.0 + xs**2 / 24.0)
    phi1[small] = h * (0.5 - xs / 3.0 + xs**2 / 8.0)
    xl = x[~small]
    with np.errstate(under="ignore"):
        exl = np.exp(-xl)
        phi0[~small] = h * (xl - 1.0 + exl) / (xl * xl)
        phi1[~small] = h * (1.0 - (1.0 + xl) * exl) / (xl * xl)
    return phi0, phi1


def _validate_solve_args(alpha, h, n_steps, max_horizon):
    a = _alpha_value(alpha)
    h = _nonneg_float(h, "step h", strict=True)
    n_steps = int(n_steps)
    if n_steps < 1:
        raise DomainError("N must be >= 1")
    if h * n_steps > max_horizon:
        raise DomainError(
            f"horizon h*N = {h * n_steps:g} exceeds configured max {max_horizon:g}"
        )
    return a, h, n_steps


def _flow_operator(gen, init) -> Tuple[np.ndarray, np.ndarray]:
    """(M, u0) for D^alpha u = M u from ``init``.

    Matrix mode: the superoperator and vec(init), as lindblad checks them.
    Scalar mode (a rate lambda for ``gen``): M = [[-lambda]], u0 = [init].
    """
    if isinstance(gen, GKSLGenerator):
        return _gksl_flow(gen, init)
    lam = complex(gen)
    if not (lam.real > 0.0) or not math.isfinite(abs(lam)):
        raise DomainError("scalar rate lambda must have positive real part")
    return np.array([[-lam]]), np.array([complex(init)])


def _trajectory(
    u: np.ndarray, alpha: FractionalOrder, h: float, scheme: WeightScheme,
    init: Union[DensityMatrix, float, complex]
) -> FracTrajectory:
    """Assemble a trajectory from the core's (N + 1, m) states.

    Matrix mode admits states 1..N as one stack: it raises at the first step
    whose defect exceeds _STATE_FAIL_TOL and warns once if any exceeds
    _STATE_WARN_TOL.
    """
    if not isinstance(init, DensityMatrix):
        return FracTrajectory(alpha, h, scheme, u[:, 0])
    stack = u[1:].reshape(-1, init.dim, init.dim)
    states = _admit_flow(stack, "state", _STATE_FAIL_TOL, 2 * _STATE_FAIL_TOL,
                         warn_tol=_STATE_WARN_TOL,
                         times=h * np.arange(1, len(stack) + 1), stacklevel=3)
    return FracTrajectory(alpha, h, scheme, (init,) + states)


def fam_solve(
    gen: Union[GKSLGenerator, float, complex],
    alpha: _AlphaLike,
    h: float,
    n_steps: int,
    init: Union[DensityMatrix, float, complex],
    scheme: Union[WeightScheme, str] = WeightScheme.StandardDFF,
    max_horizon: float = DEFAULT_MAX_HORIZON,
) -> FracTrajectory:
    """Solve D^alpha rho = L rho by the fractional Adams-Moulton method.

    ``gen`` is a :class:`~fracdyn.lindblad.GKSLGenerator` (matrix mode) or a
    positive scalar rate lambda (scalar mode, L -> multiplication by -lambda).
    Returns the trajectory at t_n = n h for n = 0..N.
    """
    from scipy.special import gamma

    scheme = _coerce_enum(WeightScheme, scheme, "weight scheme")
    a, h, n_steps = _validate_solve_args(alpha, h, n_steps, max_horizon)
    order = alpha if isinstance(alpha, FractionalOrder) else FractionalOrder(a)
    M, u0 = _flow_operator(gen, init)

    v, oldest = _history_weights(scheme, a, n_steps)
    # vr[j] = v_{n_steps - j}: a contiguous copy for the history dot.
    vr, oldest = v[::-1].copy(), oldest[:-1]
    if scheme is WeightScheme.StandardDFF:
        pref = h**a / gamma(a + 2.0)
        u = _dense_implicit_core(M, u0, pref, vr, oldest, n_steps)
    else:
        pref = h**a / gamma(1.0 + a)
        b = predictor_weights(scheme, a, n_steps)
        u = _dense_explicit_core(M, u0, pref, vr, oldest, b[::-1].copy(),
                                 n_steps)
    return _trajectory(u, order, h, scheme, init)


def fam_solve_soe(
    gen: Union[GKSLGenerator, float, complex],
    alpha: _AlphaLike,
    h: float,
    n_steps: int,
    init: Union[DensityMatrix, float, complex],
    soe: SOEKernel,
    scheme: Union[WeightScheme, str] = WeightScheme.StandardDFF,
    max_horizon: float = DEFAULT_MAX_HORIZON,
) -> FracTrajectory:
    """Like :func:`fam_solve` but with O(Q) compressed-history steps.

    Requires the ``StandardDFF`` scheme (the compressed accumulators realize
    the piecewise-linear product integral that underlies those weights) and a
    :class:`~fracdyn.kernels.SOEKernel` valid on [h, N h] at matching alpha.
    """
    from scipy.special import gamma

    scheme = _coerce_enum(WeightScheme, scheme, "weight scheme")
    if scheme is not WeightScheme.StandardDFF:
        raise ValidationError("fam_solve_soe supports the StandardDFF scheme only")
    a, h, n_steps = _validate_solve_args(alpha, h, n_steps, max_horizon)
    order = alpha if isinstance(alpha, FractionalOrder) else FractionalOrder(a)

    if abs(_alpha_value(soe.alpha) - a) > 1e-12:
        raise ValidationError("SOE kernel alpha does not match solver alpha")
    t_lo, t_hi = soe.valid_range
    if t_lo > h * (1.0 + 1e-9) or t_hi < h * n_steps * (1.0 - 1e-9):
        raise ValidationError(
            f"SOE kernel valid on [{t_lo:g}, {t_hi:g}] does not cover "
            f"[{h:g}, {h * n_steps:g}]"
        )
    M, u0 = _flow_operator(gen, init)

    w, xi = soe.weights_rates()
    with np.errstate(under="ignore"):
        eh = np.exp(-xi * h)
    phi0, phi1 = _soe_phi_weights(xi, h)

    pref = h**a / gamma(a + 2.0)
    if a == 1.0:
        # K == 1: the near-field product integrals reduce to trapezoid cells.
        a2 = 0.5 * h
        b2 = 0.5 * h
    else:
        ha_g = h**a / gamma(a)
        a2 = ha_g * (2.0 * (2.0**a - 1.0) / a
                     - (2.0 ** (a + 1.0) - 1.0) / (a + 1.0))
        b2 = ha_g * ((2.0 ** (a + 1.0) - 1.0) / (a + 1.0)
                     - (2.0**a - 1.0) / a)

    u = _soe_core(M, u0, pref, a, a2, b2, w, eh, phi0, phi1, n_steps)
    return _trajectory(u, order, h, scheme, init)


def ml_propagate(
    gen: Union[GKSLGenerator, Superoperator],
    alpha: _AlphaLike,
    t: float,
    init: DensityMatrix,
) -> DensityMatrix:
    """Exact spectral propagation rho(t) = E_alpha(t^alpha M) rho(0).

    Diagonalizes the superoperator M = V diag(lambda_j) V^(-1) and scales
    mode j by E_alpha(lambda_j t^alpha), all modes in one array call (complex
    eigenvalues included).  Raises a diagnostic error if the
    eigenbasis condition number reaches 1e8 (use :func:`fam_solve` then).
    ``gen`` is the generator or its :class:`Superoperator`; both give the
    same bits.
    """
    a = _alpha_value(alpha)
    t = _nonneg_float(t, "time t")
    M, rho0 = _gksl_flow(gen, init)
    if t == 0.0:
        return init

    basis = _eigenbasis(M)
    if basis is None:
        raise NumericalInstabilityError(
            f"superoperator eigenbasis condition number >= {_EIG_COND_MAX:g}; "
            "use fam_solve instead"
        )
    evals, V = basis
    coeffs = np.linalg.solve(V, rho0)
    factors = mittag_leffler(a, evals * t**a)
    out = unvec(V @ (factors * coeffs), gen.dim)
    return _admit_flow(out[None], "spectral propagation", _STATE_FAIL_TOL,
                       2 * _STATE_FAIL_TOL)[0]
