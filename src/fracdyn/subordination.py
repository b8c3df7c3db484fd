"""Bochner-Phillips subordination of Lindblad semigroups.

The fractional state at physical time t is the convex mixture

    rho(t) = int_0^inf f_alpha(u, t) e^(u L) rho(0) du,

where f_alpha(u, t) = t^(-alpha) M_alpha(u t^(-alpha)) is the inverse-stable
(operational-time) density, M_alpha the M-Wright function.  This module
provides the density, exact stable-clock sampling (Kanter's representation),
the deterministic subordination quadrature, Monte-Carlo trajectory
estimation, and the scalar non-divisibility witness.

The clock is self-similar: U(t) has the law of t^alpha U(1), so
f_alpha(u, t) du = M_alpha(x) dx with x = u t^(-alpha).  The quadrature
runs in x, where each (alpha, refinement level) has one rule of nodes and
M-Wright weights, cached and shared by every t.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import (AccuracyError, DomainError, FractionalOrder,
                     ValidationError, _AlphaLike, _count, _instance,
                     _nonneg_float, _order, _points, _shaped)
from .lindblad import (
    DensityMatrix,
    GKSLGenerator,
    Superoperator,
    _admit_flow,
    _as_square_complex,
    _eigenbasis,
    _flow_operator,
    semigroup_apply,
    unvec,
)
from .specfun import _log_m_wright_tail, m_wright, mittag_leffler

__all__ = [
    "OperationalClock",
    "TrajectoryEstimate",
    "levy_density",
    "sample_clock",
    "subordinated_propagate",
    "trajectory_estimate",
    "divisibility_defect",
]

# Monte-Carlo samples per seeded block in trajectory_estimate.
_MC_BLOCK = 4096
# Largest invariant defect of a subordinated state.
_STATE_TOL = 1e-8
# The subordination quadrature (see subordinated_propagate); two levels
# agree when no entry of the map Phi moves by more than _AGREE_TOL.
_TAIL_MASS = 1e-8
_AGREE_TOL = 1e-8
_NODES_PER_PANEL = 16
_START_PANELS = 8
_MAX_DOUBLINGS = 12
# Held while a rule is looked up or built: rows run in threads build each
# rule once, not once per thread.
_RULE_LOCK = threading.Lock()


@dataclass(frozen=True)
class OperationalClock:
    """Random operational time U(t) of the fractional flow at fixed t."""

    alpha: FractionalOrder
    t: float

    def __post_init__(self):
        order = _order(self.alpha)
        if order.alpha == 1.0:
            raise DomainError("operational clock requires alpha in (0, 1)")
        object.__setattr__(self, "alpha", order)
        object.__setattr__(self, "t",
                           _nonneg_float(self.t, "clock time t", strict=True))


@dataclass(frozen=True)
class TrajectoryEstimate:
    """Monte-Carlo estimate of an observable along the fractional flow."""

    mean: float
    stderr: float
    n_samples: int
    seed: int

    def __post_init__(self):
        _count(self.n_samples, "n_samples", 2)
        _nonneg_float(self.stderr, "stderr", err=ValidationError)


def levy_density(clock: OperationalClock, u) -> Union[float, np.ndarray]:
    """Inverse-stable density f_alpha(u, t) = t^(-alpha) M_alpha(u t^(-alpha)).

    ``u`` may be a scalar (returns ``float``) or an array of any shape,
    evaluated in one vectorized :func:`m_wright` call.
    """
    a = _instance(clock, OperationalClock, "levy_density clock").alpha.alpha
    scale = clock.t ** (-a)
    flat, shape = _points(u, "levy_density u", 0.0)
    return _shaped(scale * m_wright(a, flat * scale), shape)


def sample_clock(
    clock: OperationalClock,
    rng_stream: np.random.Generator,
    size: Optional[int] = None,
) -> Union[float, np.ndarray]:
    """Draw operational times u ~ f_alpha(u, t) by Kanter's representation.

    With V uniform on (0, pi) and W standard exponential, the one-sided
    stable variate is S = (sin(aV)/(sin V)^(1/a)) * (sin((1-a)V)/W)^((1-a)/a)
    and u = t^a S^(-a) has the inverse-stable density.  It is evaluated as
    u = t^a sin V sin(aV)^(-a) (W / sin((1-a)V))^(1-a), which has no 1/a
    power to underflow or overflow at small a.
    """
    a = _instance(clock, OperationalClock, "sample_clock clock").alpha.alpha
    _instance(rng_stream, np.random.Generator, "sample_clock rng_stream")
    n = 1 if size is None else _count(size, "size", 1)
    v = rng_stream.uniform(0.0, math.pi, n)
    w = rng_stream.standard_exponential(n)
    u = clock.t**a * np.sin(v) * np.sin(a * v) ** (-a) \
        * (w / np.sin((1.0 - a) * v)) ** (1.0 - a)
    if size is None:
        return float(u[0])
    return u


def _tail_cutoff(a: float) -> float:
    """Smallest x0 = 1.5^k with int_{x0}^inf M_alpha(x) dx below _TAIL_MASS.

    Uses the stretched-exponential M-Wright tail: the integral is bounded by
    M_alpha(x0) divided by the local decay rate (a x0)^(a/(1-a)).  A factor-10
    safety margin absorbs the asymptotic's O(1/x) relative error.  The bound
    is compared in logarithms, so a tail below any double (alpha near 1,
    where x0^(1/(1-alpha)) overflows) reads as 0 and the search ends.
    """
    rate_pow = a / (1.0 - a)
    log_target = math.log(0.1 * _TAIL_MASS)
    x0 = 1.0
    while _log_m_wright_tail(a, x0) - rate_pow * math.log(a * x0) > log_target:
        x0 *= 1.5
    return x0


def _gl_panels(n_panels: int, nodes: int, upper: float):
    x, w = np.polynomial.legendre.leggauss(nodes)
    width = upper / n_panels
    centers = width * (np.arange(n_panels) + 0.5)
    u = (centers[:, None] + 0.5 * width * x[None, :]).ravel()
    wts = np.tile(0.5 * width * w, n_panels)
    return u, wts


@functools.lru_cache(maxsize=16)
def _clock_rule(a: float, n_panels: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only nodes x and weights c = w M_alpha(x) of one refinement level.

    Gauss-Legendre panels on [0, x0] of the operational variable
    x = u t^(-alpha), with x0 = :func:`_tail_cutoff`.  Since
    f_alpha(u, t) du = M_alpha(x) dx, the rule is the same for every t;
    a caller maps its nodes to u = t^alpha x.
    """
    x, w = _gl_panels(n_panels, _NODES_PER_PANEL, _tail_cutoff(a))
    # At t = 1 the density's scale is exactly 1.0: this is M_alpha(x).
    c = w * levy_density(OperationalClock(a, 1.0), x)
    x.setflags(write=False)
    c.setflags(write=False)
    return x, c


def _subordinated_matrix(M: np.ndarray, a: float, t: float) -> np.ndarray:
    """The subordinated map Phi(t) = int f_alpha(u,t) e^(uM) du as a matrix.

    Level k integrates in x = u t^(-alpha) with the cached
    :func:`_clock_rule` of ``_START_PANELS * 2^k`` panels; it stops when two
    levels agree to ``_AGREE_TOL``, after at most ``_MAX_DOUBLINGS``
    doublings.
    """
    scale = t**a
    basis = _eigenbasis(M)
    if basis is None:
        from scipy.linalg import expm
    else:
        evals, V = basis
        Vinv = np.linalg.inv(V)
    prev = None
    n_panels = _START_PANELS
    for _ in range(_MAX_DOUBLINGS + 1):
        with _RULE_LOCK:
            x, coeff = _clock_rule(a, n_panels)
        u = scale * x
        if basis is not None:
            with np.errstate(over="ignore", under="ignore"):
                phi = np.exp(np.outer(u, evals))
            phi_w = coeff @ phi
            cur = (V * phi_w[None, :]) @ Vinv
        else:  # defective generator: direct matrix exponentials
            cur = np.zeros_like(M)
            for uk, ck in zip(u, coeff):
                cur += ck * expm(uk * M)
        if prev is not None and np.max(np.abs(cur - prev)) <= _AGREE_TOL:
            return cur
        prev = cur
        n_panels *= 2
    raise AccuracyError(
        f"subordination quadrature did not reach {_AGREE_TOL:g} "
        f"after {_MAX_DOUBLINGS} panel doublings"
    )


def subordinated_propagate(
    gen: Union[GKSLGenerator, Superoperator],
    alpha: _AlphaLike,
    t: float,
    init: DensityMatrix,
) -> DensityMatrix:
    """Evaluate rho(t) = int f_alpha(u, t) e^(uL) rho(0) du deterministically.

    The quadrature is fixed by module constants: Gauss-Legendre panels of
    ``_NODES_PER_PANEL`` = 16 nodes on all but ``_TAIL_MASS`` = 1e-8 of the
    clock mass, from ``_START_PANELS`` = 8 panels doubled (at most
    ``_MAX_DOUBLINGS`` = 12 times) until two levels agree to ``_AGREE_TOL``
    = 1e-8.  ``gen`` is the generator L or its :class:`Superoperator`; both
    give the same bits.

    The clock density M_alpha concentrates about x = 1 as alpha -> 1, with
    a width that shrinks with 1 - alpha.  The rule resolves it up to alpha
    = 0.9999 at least; at alpha = 0.99999 twelve doublings do not, and the
    call raises :class:`AccuracyError` (alpha = 1 itself is the semigroup).
    """
    a = _order(alpha).alpha
    t = _nonneg_float(t, "time t")
    M, rho0 = _flow_operator(gen, init)
    if t == 0.0:
        return init
    if a == 1.0:
        # Degenerate clock f -> delta(u - t): the ordinary semigroup.
        return semigroup_apply(Superoperator(gen.dim, M), t, init)
    phi = _subordinated_matrix(M, a, t)
    out = unvec(phi @ rho0, gen.dim)
    return _admit_flow(out, "subordinated state", _STATE_TOL)


def trajectory_estimate(
    gen: Union[GKSLGenerator, Superoperator],
    alpha: _AlphaLike,
    t: float,
    init: DensityMatrix,
    observable: np.ndarray,
    n_samples: int,
    seed: int,
) -> TrajectoryEstimate:
    """Monte-Carlo mean of tr[O rho(t)] over sampled operational times.

    Operational times are drawn in blocks of 4096 samples (the last block
    holds the remainder): block b is one vectorized draw from the stream
    SeedSequence([seed, b]), so the result depends only on
    ``(seed, n_samples)``, never on thread count or call order.  Sample k
    contributes tr[O e^(u_k L) rho(0)].  Mean and standard error come from
    a two-pass accumulation.  ``gen`` is the generator L or its
    :class:`Superoperator`; both give the same bits.
    """
    clock = OperationalClock(alpha, t)
    n_samples = _count(n_samples, "n_samples", 2)
    seed = _count(seed, "seed")
    M, rho0 = _flow_operator(gen, init)
    obs = _as_square_complex(observable, "observable")
    if obs.shape != (gen.dim, gen.dim):
        raise ValidationError("observable shape does not match generator")
    if np.max(np.abs(obs - obs.conj().T)) > 1e-12:
        raise ValidationError("observable must be Hermitian")

    u = np.empty(n_samples)
    for b, lo in enumerate(range(0, n_samples, _MC_BLOCK)):
        hi = min(lo + _MC_BLOCK, n_samples)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, b]))
        )
        u[lo:hi] = sample_clock(clock, rng, size=hi - lo)

    basis = _eigenbasis(M)
    # tr[O X] = sum_ij O_ji X_ij = vec(O^T) . vec(X) under row-major vec.
    o_row = obs.T.reshape(-1)
    if basis is not None:
        evals, V = basis
        c = (o_row @ V) * (np.linalg.inv(V) @ rho0)
        # One (n_samples, d^2) buffer, exponentiated and weighted in place,
        # and a row sum, not `@ c`: OpenBLAS runs that complex mat-vec on its
        # thread pool, whose spinning workers slow the other CLI row threads
        # on a 2-core host by about a third.
        terms = np.outer(u, evals)
        with np.errstate(over="ignore", under="ignore"):
            np.exp(terms, out=terms)
        terms *= c
        vals = terms.sum(axis=1)
    else:
        from scipy.linalg import expm

        vals = np.empty(n_samples, dtype=complex)
        for k, uk in enumerate(u):
            vals[k] = o_row @ (expm(uk * M) @ rho0)
    real_vals = vals.real
    mean = float(np.mean(real_vals))
    std = float(np.std(real_vals, ddof=1))
    return TrajectoryEstimate(mean, std / math.sqrt(n_samples),
                              n_samples, seed)


def divisibility_defect(
    alpha: _AlphaLike, lam: float, t: float, tau: float
) -> float:
    """Scalar non-divisibility witness |E_a(-l t^a) - E_a(-l (t-tau)^a) E_a(-l tau^a)|.

    Vanishes identically at alpha = 1 (exponential semigroup); positive for
    alpha < 1 — the fractional relaxation family is not a semigroup.
    """
    a = _order(alpha).alpha
    lam = _nonneg_float(lam, "lambda", strict=True)
    t = _nonneg_float(t, "divisibility_defect t")
    tau = _nonneg_float(tau, "divisibility_defect tau")
    if not (0.0 < tau < t):
        raise DomainError("tau must lie strictly between 0 and t")
    full, head, tail = mittag_leffler(
        a, -lam * np.array([t, t - tau, tau]) ** a)
    return float(abs(full - head * tail))
