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

:func:`fam_solve` keeps the whole history, with no kernel approximation, and
steps it a block of up to 16 steps at a time: the history before a block
enters all of the block's steps through one product with a table of lag
weights, and the steps within the block through one linear map composed
once per solve.  Both schemes share that core.

:func:`fam_solve_soe` replaces the dense history sum with Q exponential
accumulators driven by a :class:`~fracdyn.kernels.SOEKernel`: the kernel is
kept exact on the two most recent intervals (lag <= 2h) and approximated by
sum_q w_q e^(-xi_q tau) beyond, giving O(Q) work per step instead of O(n).
It runs the same block loop, in blocks of up to 64 steps, with the
accumulators as the compressed far field of the history before a block.

:func:`ml_propagate` evaluates the exact solution rho(t) = E_alpha(t^alpha M)
rho(0) through the eigendecomposition of the superoperator.

One set of solver cores serves both modes: each integrates D^alpha u = M u
for an m x m operator M, the d^2 x d^2 superoperator acting on vec(rho) in
matrix mode and M = [[-lambda]] in scalar mode (m = 1).  The cores share
one block loop and apply every corrector weight the same way, the new
point's included.  Matrix mode shares the flow layer of
:mod:`fracdyn.lindblad` with the subordination routes: the initial state is
checked and M built by one helper, the eigenbasis of :func:`ml_propagate`
comes from one rule, and the states of a trajectory are checked once, as one
stack, after the core has run.  The trajectory keeps that stack and makes a
step's DensityMatrix only when it is asked for.
"""

from __future__ import annotations

import csv
import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DomainError, FractionalOrder, NumericalInstabilityError,
                     ValidationError, _AlphaLike, _coerce_enum, _count,
                     _nonneg_float, _order)
from .kernels import SOEKernel
from .lindblad import (
    _EIG_COND_MAX,
    DensityMatrix,
    GKSLGenerator,
    Superoperator,
    _admit_flow,
    _admitted_state,
    _check_flow,
    _eigenbasis,
    _flow_operator as _gksl_flow,
    unvec,
)
from .specfun import mittag_leffler

__all__ = [
    "WeightScheme",
    "FracTrajectory",
    "predictor_weights",
    "corrector_weights",
    "fam_solve",
    "fam_solve_soe",
    "ml_propagate",
]

# Largest horizon h*N a solver accepts.
_MAX_HORIZON = 1.0e6

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
    a = _order(alpha).alpha
    n = _count(n, "n")
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
    a = _order(alpha).alpha
    n = _count(n, "n")
    v, oldest = _history_weights(scheme, a, n)
    return np.append(v, oldest[n])


# ----------------------------------------------------------------------------
# Trajectory container
# ----------------------------------------------------------------------------

class _StackedStates(Sequence):
    """The states of a matrix trajectory: ``init``, then steps 1..N held as
    one admitted stack (N, d, d).

    A step's DensityMatrix is made when it is first indexed and kept, so a
    state keeps its identity between accesses (dict.setdefault keeps the
    first one made, also across threads); ``len`` builds nothing.
    """

    def __init__(self, init: DensityMatrix, stack: np.ndarray, tol: float):
        self.init = init
        self.stack = stack
        self._tol = tol
        self._built = {0: init}

    def __len__(self) -> int:
        return len(self.stack) + 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[k] for k in range(len(self))[index])
        k = range(len(self))[index]
        state = self._built.get(k)
        if state is None:
            state = self._built.setdefault(
                k, _admitted_state(self.stack[k - 1], self._tol))
        return state


@dataclass(frozen=True)
class FracTrajectory:
    """Solution of a fractional master equation on a uniform grid t_n = n h.

    ``states`` is an array in scalar mode and a sequence of DensityMatrix
    in matrix mode.
    """

    alpha: FractionalOrder
    h: float
    scheme: WeightScheme
    states: Union[np.ndarray, Sequence]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _order(self.alpha))

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
        init, stack = self.states.init, self.states.stack
        d = init.dim
        columns = ["t"] + [f"{part}_{i}{j}" for i in range(d)
                           for j in range(d) for part in ("re", "im")]
        table = np.empty((len(stack) + 1, 1 + 2 * d * d))
        table[:, 0] = self.times()
        table[0, 1:] = init.entries.reshape(-1).view(np.float64)
        table[1:, 1:] = stack.reshape(len(stack), -1).view(np.float64)
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
# right-hand sides g = M u are stored as rows of (N + 1, m) arrays.  Products
# use ndarray.dot, whose call overhead on these small operands is well below
# that of the @ operator.
#
# All three cores are wrappers over one block loop, _dense_blocks, which steps
# in real form: each complex row is held as its (2m,) float view (re, im
# interleaved) and each operator as its _real_form.  The history weights are
# real, so a history sum is a real product over the (n, 2m) float history,
# with half the flops of a complex one, and no step converts between complex
# and float.
#
# The loop advances a block of B steps per Python iteration, so that the
# interpreter's per-step overhead and the reading of the history are paid
# once per block.  The history before a block enters through one gemm over a
# table of lag weights for the dense cores, and through Q exponential modes,
# its compressed far field, for the SOE core.

# Steps advanced together by _dense_blocks: _DENSE_BLOCK with the dense
# table, _SOE_BLOCK with the SOE modes; fewer when the block's real width,
# B * 2m, would exceed _DENSE_ROWS_MAX, so that its (B 2m)^2 near-field map
# stays a small gemv (large d, where one step alone is a wide product).
_DENSE_BLOCK = 16
_SOE_BLOCK = 64
_DENSE_ROWS_MAX = 256


def _real_form(A):
    """The real (..., 2p, 2q) stack that maps the float view of a complex
    q-vector x to the float view of A x, for each (p, q) matrix A of a
    stack (..., p, q)."""
    out = np.empty(A.shape[:-2] + (2 * A.shape[-2], 2 * A.shape[-1]))
    out[..., 0::2, 0::2] = A.real
    out[..., 0::2, 1::2] = -A.imag
    out[..., 1::2, 0::2] = A.imag
    out[..., 1::2, 1::2] = A.real
    return out


def _dense_blocks(G, x, lags, P, n_steps, modes=None):
    """Overwrite rows 1..N of x, which hold c_1..c_N, with the solution of
    x_{n+1} = c_{n+1} + sum_{j=1..n} A_{n+1-j} G x_j.

    ``x`` is (N + 1, 2m), G and P are (2m, 2m).  The lag weights are
    A_l = lags[0][l] I, and with P A_l = lags[0][l] I + lags[1][l] P, for
    l = 0..N.

    With ``modes`` = (E, eh, S) and no P, the weights from lag 3 on are
    those of Q exponential modes, lags[0][l] = sum_q E[l-1, q] with
    E[i, q] = wd_q eh_q^i, and lags[0] and E need only reach l = max(B, 2).
    S (Q, 2m) holds S_q = sum_j eh_q^(n0-j) g_j over the history before a
    block and is advanced in place.  It starts as the caller's g_0 term, so
    g_0 enters every step through the modes, and c carries the rest of its
    weight.
    """
    two_m = len(G)
    cap = _DENSE_BLOCK if modes is None else _SOE_BLOCK
    block = max(1, min(cap, n_steps, _DENSE_ROWS_MAX // two_m))
    if modes is None:
        # Far field: W[N - n0 + j - 1, s B + i] = lags[s][n0 + 1 + i - j]
        # weights g_j = G x_j (j <= n0) in x_{n0+1+i}, so a block's far
        # history is the one product W[N - n0:].T g[1:n0+1].  Lags past N are
        # zero.
        lag = np.zeros((len(lags), n_steps + 1 + block))
        lag[:, : n_steps + 1] = lags
        W = sliding_window_view(lag, block, axis=1)[:, n_steps:0:-1]
        W = np.ascontiguousarray(W.transpose(1, 0, 2)).reshape(n_steps, -1)
    else:
        # Compressed far field: a block's history is E[:k] S, plus, for the
        # lags 1 and 2 across the block edge (g_{n0-1} and g_{n0} in
        # x_{n0+1}, g_{n0} in x_{n0+2}), their exact weight less the modes'.
        # After a block, S <- eh^B S + mix g_block.
        E, eh, S = modes
        lag2 = lags[0][2] - E[1].sum()
        edge = np.array([[lag2, lags[0][1] - E[0].sum()], [0.0, lag2]])
        with np.errstate(under="ignore"):
            decay = (eh**block)[:, None]
            mix = eh[:, None] ** np.arange(block - 1, -1, -1)
    # Near field: in a block, x_{n0+1+i} = b_i + sum_{l=1..i} A_l G
    # x_{n0+1+i-l} with b = c + far field, so the block is x = K b for the
    # block-lower-triangular Toeplitz K with K_0 = I and K_p = sum_{l=1..p}
    # A_l G K_{p-l}; block (i, j) of K is K_{i-j}, held as kp[B - 1 + i - j],
    # which is zero for i < j.
    ag = lags[0][1:block, None, None] * G
    if P is not None:
        ag += lags[1][1:block, None, None] * P.dot(G)
    kp = np.zeros((2 * block - 1, two_m, two_m))
    kp[block - 1] = np.eye(two_m)
    for p in range(1, block):
        kp[block - 1 + p] = np.matmul(
            ag[:p], kp[block + p - 2: block - 2: -1]).sum(axis=0)
    i = np.arange(block)
    K = kp[block - 1 + i[:, None] - i].transpose(0, 2, 1, 3)
    K = K.reshape(block * two_m, -1)

    g = np.zeros_like(x)  # g_0 = 0: the history is g_1..g_n
    flat = x.reshape(-1)
    for n0 in range(0, n_steps, block):
        k = min(block, n_steps - n0)
        xb = x[n0 + 1: n0 + k + 1]
        if modes is not None:
            xb += E[:k].dot(S)
            if n0:
                xb[:2] += edge[:k].dot(g[n0 - 1: n0 + 1])
        elif n0:
            far = W[n_steps - n0:].T.dot(g[1: n0 + 1])
            xb += far[:k]
            if P is not None:
                xb += far[block: block + k].dot(P.T)
        if block > 1:  # K = I for one-step blocks
            lo, hi = (n0 + 1) * two_m, (n0 + k + 1) * two_m
            flat[lo:hi] = K[: hi - lo, : hi - lo].dot(flat[lo:hi])
        xb.dot(G.T, out=g[n0 + 1: n0 + k + 1])
        if modes is not None and n0 + block < n_steps:
            S *= decay
            S += mix.dot(g[n0 + 1: n0 + block + 1])


def _implicit_blocks(M, u0, p0, oldest, lags, n_steps, modes=None):
    # (I - p0 M) u_{n+1} = u0 + oldest_n g_0 + history of g_j = M u_j
    # (j >= 1) under ``lags`` and ``modes`` as _dense_blocks takes them.  The
    # steps advance r_{n+1} = (I - p0 M) u_{n+1}, whose history is G r_j with
    # G = M (I - p0 M)^(-1); u is recovered from r in one product afterwards.
    left_inv = np.linalg.inv(np.eye(len(u0)) - p0 * M)
    r = np.empty((n_steps + 1, 2 * len(u0)))
    r[1:] = (u0 + oldest[:, None] * (M @ u0)).view(np.float64)
    _dense_blocks(_real_form(M @ left_inv), r, (lags,), None, n_steps, modes)
    u = r.view(np.complex128) @ left_inv.T
    u[0] = u0
    return u


def _dense_explicit_core(M, u0, pref, v, oldest, b, n_steps):
    # PaperPrinted: predict p_{n+1} = u0 + sum_{j=0..n} pref b_{n-j} g_j, then
    # correct u_{n+1} = u0 + pref (oldest_n g_0 + sum_{j=1..n} v_{n+1-j} g_j)
    # + pm p_{n+1} with pm = pref v_0 M.  The u0 and g_0 terms are fixed per
    # step, and g_j (j >= 1) is weighted by pref v_l + pref b_{l-1} pm at lag
    # l = n + 1 - j.
    mr = _real_form(M)
    pm = (pref * v[0]) * mr
    uf0, g0 = u0.view(np.float64), (M @ u0).view(np.float64)
    b = pref * b
    u = np.empty((n_steps + 1, 2 * len(u0)))
    u[0] = uf0
    u[1:] = (uf0 + pm.dot(uf0) + (pref * oldest)[:, None] * g0
             + b[:-1, None] * pm.dot(g0))
    _dense_blocks(mr, u, (pref * v, np.concatenate(([0.0], b[:-1]))),
                  pm, n_steps)
    return u.view(np.complex128)


def _soe_core(M, u0, pref, alpha_w, a2, b2, w, eh, phi0, phi1, n_steps):
    # StandardDFF + SOE history: near field (lag <= 2h) exact, far field via
    # Q exponential accumulators H_q, updated from step 1 on as
    # H_q <- eh_q (H_q + eh_q (phi1_q g_{n-1} + phi0_q g_n)).  Unrolled, this
    # is the implicit dense core, (I - pref M) u_{n+1} = u0 + sum_l lam_l
    # g_{n+1-l}, with lam_1 = pref alpha + a2, lam_2 = b2 + sum_q w_q eh_q^2
    # phi0_q and, from lag 3 on, the modes' weights lam_l = sum_q wd_q
    # eh_q^(l-1), wd = w phi with phi = phi0 eh + phi1: the modes are its far
    # field.  g_0 is weighted by pref alpha in step 1, b2 in step 2 and
    # sum_q w_q phi1_q eh_q^n in step n + 1 > 2, that is the modes' weights
    # for g_0 scaled by phi1 / phi, which is how S starts; ``oldest``
    # corrects steps 1 and 2.
    phi = phi0 * eh + phi1
    with np.errstate(under="ignore"):
        E = (w * phi) * eh ** np.arange(_SOE_BLOCK + 2)[:, None]
        lags = np.concatenate(([pref], E.sum(axis=1)))
        lags[1:3] = pref * alpha_w + a2, b2 + w.dot(eh * eh * phi0)
    oldest = np.zeros(n_steps)
    oldest[:2] = (pref * alpha_w - w.dot(phi1), b2 - w.dot(phi1 * eh))[:n_steps]
    start = (phi1 / phi)[:, None] * (M @ u0).view(np.float64)
    return _implicit_blocks(M, u0, pref, oldest, lags, n_steps,
                            (E, eh, start))


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


def _validate_solve_args(alpha, h, n_steps):
    order = _order(alpha)
    h = _nonneg_float(h, "step h", strict=True)
    n_steps = _count(n_steps, "N", 1, DomainError)
    if h * n_steps > _MAX_HORIZON:
        raise DomainError(
            f"horizon h*N = {h * n_steps:g} exceeds max {_MAX_HORIZON:g}")
    return order, h, n_steps


def _flow_operator(gen, init) -> Tuple[np.ndarray, np.ndarray]:
    """(M, u0) for D^alpha u = M u from ``init``.

    Matrix mode: the superoperator and vec(init), as lindblad checks them.
    Scalar mode (a rate lambda for ``gen``): M = [[-lambda]], u0 = [init].
    """
    if isinstance(gen, GKSLGenerator):
        return _gksl_flow(gen, init)
    try:
        lam, u0 = complex(gen), complex(init)
    except (TypeError, ValueError):
        raise ValidationError("scalar mode needs numbers for gen and init") from None
    if not (lam.real > 0.0) or not math.isfinite(abs(lam)):
        raise DomainError("scalar rate lambda must have positive real part")
    if not math.isfinite(abs(u0)):
        raise DomainError("scalar init must be finite")
    return np.array([[-lam]]), np.array([u0])


def _trajectory(
    u: np.ndarray, alpha: FractionalOrder, h: float, scheme: WeightScheme,
    init: Union[DensityMatrix, float, complex]
) -> FracTrajectory:
    """Assemble a trajectory from the core's (N + 1, m) states.

    Matrix mode checks states 1..N as one stack: it raises at the first step
    whose defect exceeds _STATE_FAIL_TOL and warns once if any exceeds
    _STATE_WARN_TOL.  The trajectory keeps the checked stack.
    """
    if not isinstance(init, DensityMatrix):
        return FracTrajectory(alpha, h, scheme, u[:, 0])
    stack = u[1:].reshape(-1, init.dim, init.dim)
    stack = _check_flow(stack, "state", _STATE_FAIL_TOL,
                        warn_tol=_STATE_WARN_TOL,
                        times=h * np.arange(1, len(stack) + 1), stacklevel=3)
    return FracTrajectory(alpha, h, scheme,
                          _StackedStates(init, stack, 2 * _STATE_FAIL_TOL))


def fam_solve(
    gen: Union[GKSLGenerator, float, complex],
    alpha: _AlphaLike,
    h: float,
    n_steps: int,
    init: Union[DensityMatrix, float, complex],
    scheme: Union[WeightScheme, str] = WeightScheme.StandardDFF,
) -> FracTrajectory:
    """Solve D^alpha rho = L rho by the fractional Adams-Moulton method.

    ``gen`` is a :class:`~fracdyn.lindblad.GKSLGenerator` (matrix mode) or a
    positive scalar rate lambda (scalar mode, L -> multiplication by -lambda).
    Returns the trajectory at t_n = n h for n = 0..N.  The horizon h N may
    not exceed the fixed ``_MAX_HORIZON`` = 1e6 (DomainError).
    """
    scheme = _coerce_enum(WeightScheme, scheme, "weight scheme")
    order, h, n_steps = _validate_solve_args(alpha, h, n_steps)
    a = order.alpha
    M, u0 = _flow_operator(gen, init)

    v, oldest = _history_weights(scheme, a, n_steps)
    oldest = oldest[:-1]
    if scheme is WeightScheme.StandardDFF:
        # (I - pref v_0 M) u_{n+1} = u0 + pref * history.
        pref = h**a / math.gamma(a + 2.0)
        u = _implicit_blocks(M, u0, pref * v[0], pref * oldest, pref * v,
                             n_steps)
    else:
        pref = h**a / math.gamma(1.0 + a)
        b = predictor_weights(scheme, a, n_steps)
        u = _dense_explicit_core(M, u0, pref, v, oldest, b, n_steps)
    return _trajectory(u, order, h, scheme, init)


def fam_solve_soe(
    gen: Union[GKSLGenerator, float, complex],
    alpha: _AlphaLike,
    h: float,
    n_steps: int,
    init: Union[DensityMatrix, float, complex],
    soe: SOEKernel,
    scheme: Union[WeightScheme, str] = WeightScheme.StandardDFF,
) -> FracTrajectory:
    """Like :func:`fam_solve` but with O(Q) compressed-history steps.

    Requires the ``StandardDFF`` scheme (the compressed accumulators realize
    the piecewise-linear product integral that underlies those weights) and a
    :class:`~fracdyn.kernels.SOEKernel` valid on [h, N h] at matching alpha.
    """
    scheme = _coerce_enum(WeightScheme, scheme, "weight scheme")
    if scheme is not WeightScheme.StandardDFF:
        raise ValidationError("fam_solve_soe supports the StandardDFF scheme only")
    order, h, n_steps = _validate_solve_args(alpha, h, n_steps)
    a = order.alpha

    if not isinstance(soe, SOEKernel):
        raise ValidationError("soe must be an SOEKernel")
    if abs(soe.alpha.alpha - a) > 1e-12:
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

    pref = h**a / math.gamma(a + 2.0)
    # Near-field product integrals: exactly h/2 each (trapezoid) at alpha = 1.
    ha_g = h**a / math.gamma(a)
    a2 = ha_g * (2.0 * (2.0**a - 1.0) / a - (2.0 ** (a + 1.0) - 1.0) / (a + 1.0))
    b2 = ha_g * ((2.0 ** (a + 1.0) - 1.0) / (a + 1.0) - (2.0**a - 1.0) / a)

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
    a = _order(alpha).alpha
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
