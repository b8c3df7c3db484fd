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

from .errors import AccuracyError, DomainError, ValidationError
from .lindblad import (
    DensityMatrix,
    GKSLGenerator,
    Superoperator,
    _admit_flow,
    _eigenbasis,
    _flow_operator,
    _nonneg_float,
    semigroup_apply,
    unvec,
)
from .specfun import (
    FractionalOrder,
    _alpha_value,
    m_wright,
    m_wright_asymptotic,
    mittag_leffler,
)

__all__ = [
    "OperationalClock",
    "QuadConfig",
    "TrajectoryEstimate",
    "levy_density",
    "sample_clock",
    "subordinated_propagate",
    "trajectory_estimate",
    "divisibility_defect",
]

_AlphaLike = Union[float, FractionalOrder]

# Monte-Carlo samples per seeded block in trajectory_estimate.
_MC_BLOCK = 4096
# Largest invariant defect of a subordinated state.
_STATE_TOL = 1e-8
# Held while a rule is looked up or built: rows run in threads build each
# rule once, not once per thread.
_RULE_LOCK = threading.Lock()


@dataclass(frozen=True)
class OperationalClock:
    """Random operational time U(t) of the fractional flow at fixed t."""

    alpha: FractionalOrder
    t: float

    def __post_init__(self):
        a = _alpha_value(self.alpha)
        if not 0.0 < a < 1.0:
            raise DomainError("operational clock requires alpha in (0, 1)")
        if not isinstance(self.alpha, FractionalOrder):
            object.__setattr__(self, "alpha", FractionalOrder(a))
        object.__setattr__(self, "t",
                           _nonneg_float(self.t, "clock time t", strict=True))


@dataclass(frozen=True)
class QuadConfig:
    """Discretization rule for the subordination integral.

    ``tail_mass`` bounds the truncated mass beyond U_max; panel counts double
    from ``start_panels``, at most ``max_doublings`` times, until two
    successive refinements agree to ``agree_tol`` (max-abs over the entries
    of the subordinated map Phi).
    """

    tail_mass: float = 1e-8
    agree_tol: float = 1e-8
    nodes_per_panel: int = 16
    start_panels: int = 8
    max_doublings: int = 12

    def __post_init__(self):
        if not (0.0 < self.tail_mass < 1.0):
            raise ValidationError("tail_mass must lie in (0, 1)")
        if not (self.agree_tol > 0.0):
            raise ValidationError("agree_tol must be > 0")
        if self.nodes_per_panel < 2 or self.start_panels < 1:
            raise ValidationError("invalid quadrature node/panel counts")
        if self.max_doublings < 1:
            # Convergence is judged between two refinements.
            raise ValidationError("max_doublings must be >= 1")


@dataclass(frozen=True)
class TrajectoryEstimate:
    """Monte-Carlo estimate of an observable along the fractional flow."""

    mean: float
    stderr: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValidationError("n_samples must be >= 2")
        if self.stderr < 0.0:
            raise ValidationError("stderr must be >= 0")

    def csv_row(self, t: float) -> str:
        """CSV row ``t,mean,stderr,M,seed``."""
        return (
            f"{float(t)!r},{self.mean!r},{self.stderr!r},"
            f"{self.n_samples},{self.seed}"
        )


def levy_density(clock: OperationalClock, u) -> Union[float, np.ndarray]:
    """Inverse-stable density f_alpha(u, t) = t^(-alpha) M_alpha(u t^(-alpha)).

    ``u`` may be a scalar (returns ``float``) or an array of any shape,
    evaluated in one vectorized :func:`m_wright` call.
    """
    a = _alpha_value(clock.alpha)
    scale = clock.t ** (-a)
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("u must be finite and >= 0")
    return scale * m_wright(a, arr * scale)


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
    a = _alpha_value(clock.alpha)
    n = 1 if size is None else int(size)
    if n < 1:
        raise ValidationError("size must be >= 1")
    v = rng_stream.uniform(0.0, math.pi, n)
    w = rng_stream.standard_exponential(n)
    u = clock.t**a * np.sin(v) * np.sin(a * v) ** (-a) \
        * (w / np.sin((1.0 - a) * v)) ** (1.0 - a)
    if size is None:
        return float(u[0])
    return u


def _tail_cutoff(a: float, tail_mass: float) -> float:
    """Smallest x0 with int_{x0}^inf M_alpha(x) dx below tail_mass.

    Uses the stretched-exponential M-Wright tail: the integral is bounded by
    M_alpha(x0) divided by the local decay rate a^(a/(1-a)) x0^(a/(1-a)).
    A factor-10 safety margin absorbs the asymptotic's O(1/x) relative error.
    """
    rate_pow = a / (1.0 - a)
    rate_pref = a**rate_pow
    x0 = 1.0
    target = 0.1 * tail_mass
    while x0 < 1e8:
        try:
            est = m_wright_asymptotic(a, x0) / (rate_pref * x0**rate_pow)
        except (OverflowError, ValueError):
            est = float("inf")
        if est <= target:
            return x0
        x0 *= 1.5
    raise AccuracyError(
        f"tail-mass rule {tail_mass:g} unreachable for alpha = {a:g}"
    )


def _gl_panels(n_panels: int, nodes: int, upper: float):
    x, w = np.polynomial.legendre.leggauss(nodes)
    width = upper / n_panels
    centers = width * (np.arange(n_panels) + 0.5)
    u = (centers[:, None] + 0.5 * width * x[None, :]).ravel()
    wts = np.tile(0.5 * width * w, n_panels)
    return u, wts


@functools.lru_cache(maxsize=16)
def _clock_rule(a: float, tail_mass: float, nodes_per_panel: int,
                n_panels: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only nodes x and weights c = w M_alpha(x) of one refinement level.

    Gauss-Legendre panels on [0, x0] of the operational variable
    x = u t^(-alpha), with x0 = :func:`_tail_cutoff`.  Since
    f_alpha(u, t) du = M_alpha(x) dx, the rule is the same for every t;
    a caller maps its nodes to u = t^alpha x.
    """
    x, w = _gl_panels(n_panels, nodes_per_panel, _tail_cutoff(a, tail_mass))
    # At t = 1 the density's scale is exactly 1.0: this is M_alpha(x).
    c = w * levy_density(OperationalClock(FractionalOrder(a), 1.0), x)
    x.setflags(write=False)
    c.setflags(write=False)
    return x, c


def _subordinated_matrix(
    M: np.ndarray, a: float, t: float, quad: QuadConfig
) -> np.ndarray:
    """The subordinated map Phi(t) = int f_alpha(u,t) e^(uM) du as a matrix.

    Level k integrates in x = u t^(-alpha) with the cached
    :func:`_clock_rule` of ``start_panels * 2^k`` panels.
    """
    scale = t**a
    basis = _eigenbasis(M)
    if basis is None:
        from scipy.linalg import expm
    else:
        evals, V = basis
        Vinv = np.linalg.inv(V)
    prev = None
    n_panels = quad.start_panels
    for _ in range(quad.max_doublings + 1):
        with _RULE_LOCK:
            x, coeff = _clock_rule(a, quad.tail_mass, quad.nodes_per_panel,
                                   n_panels)
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
        if prev is not None and np.max(np.abs(cur - prev)) <= quad.agree_tol:
            return cur
        prev = cur
        n_panels *= 2
    raise AccuracyError(
        f"subordination quadrature did not reach {quad.agree_tol:g} "
        f"after {quad.max_doublings} panel doublings"
    )


def subordinated_propagate(
    gen: Union[GKSLGenerator, Superoperator],
    alpha: _AlphaLike,
    t: float,
    init: DensityMatrix,
    quad: Optional[QuadConfig] = None,
) -> DensityMatrix:
    """Evaluate rho(t) = int f_alpha(u, t) e^(uL) rho(0) du deterministically.

    ``gen`` is the generator L or its :class:`Superoperator`; both give the
    same bits.
    """
    a = _alpha_value(alpha)
    t = _nonneg_float(t, "time t")
    M, rho0 = _flow_operator(gen, init)
    if t == 0.0:
        return init
    if quad is None:
        quad = QuadConfig()
    if a == 1.0:
        # Degenerate clock f -> delta(u - t): the ordinary semigroup.
        return semigroup_apply(Superoperator(gen.dim, M), t, init)
    phi = _subordinated_matrix(M, a, t, quad)
    out = unvec(phi @ rho0, gen.dim)
    return _admit_flow(out[None], "subordinated state", _STATE_TOL,
                       _STATE_TOL)[0]


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
    a = _alpha_value(alpha)
    t = _nonneg_float(t, "time t", strict=True)
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValidationError("n_samples must be >= 2")
    M, rho0 = _flow_operator(gen, init)
    obs = np.asarray(observable, dtype=complex)
    if obs.shape != (gen.dim, gen.dim):
        raise ValidationError("observable shape does not match generator")
    if np.max(np.abs(obs - obs.conj().T)) > 1e-12:
        raise ValidationError("observable must be Hermitian")

    clock = OperationalClock(FractionalOrder(a), t)
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
        # A row sum, not `@ c`: OpenBLAS runs an (n_samples, d^2) complex
        # mat-vec on its thread pool, whose spinning workers slow the other
        # CLI row threads on a 2-core host by about a third.
        with np.errstate(over="ignore", under="ignore"):
            vals = (np.exp(np.outer(u, evals)) * c).sum(axis=1)
    else:
        from scipy.linalg import expm

        vals = np.empty(n_samples, dtype=complex)
        for k, uk in enumerate(u):
            vals[k] = o_row @ (expm(uk * M) @ rho0)
    real_vals = vals.real
    mean = float(np.mean(real_vals))
    std = float(np.std(real_vals, ddof=1))
    return TrajectoryEstimate(mean, std / math.sqrt(n_samples),
                              n_samples, int(seed))


def divisibility_defect(
    alpha: _AlphaLike, lam: float, t: float, tau: float
) -> float:
    """Scalar non-divisibility witness |E_a(-l t^a) - E_a(-l (t-tau)^a) E_a(-l tau^a)|.

    Vanishes identically at alpha = 1 (exponential semigroup); positive for
    alpha < 1 — the fractional relaxation family is not a semigroup.
    """
    a = _alpha_value(alpha)
    lam = float(lam)
    t = float(t)
    tau = float(tau)
    if not (lam > 0.0):
        raise DomainError("lambda must be > 0")
    if not (0.0 < tau < t):
        raise DomainError("tau must lie strictly between 0 and t")
    full, head, tail = mittag_leffler(
        a, -lam * np.array([t, t - tau, tau]) ** a)
    return float(abs(full - head * tail))
