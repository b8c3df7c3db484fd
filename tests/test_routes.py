"""One physical object three ways: the fractional GKSL flow of random
generators from the Mittag-Leffler propagator, the subordination integral
over the operational clock (quadrature and Monte Carlo), and the
fractional Adams-Moulton solver.

The draw is fixed by its seed, and it must put eigenvalues z = lambda t^a
of the superoperator on both sides of the Mittag-Leffler pole contour's
region switch, so that both pole regions run on generic generators.
"""

import math

import numpy as np
import pytest

from fracdyn.fracsolve import fam_solve, ml_propagate
from fracdyn.lindblad import (
    DensityMatrix,
    GKSLGenerator,
    Superoperator,
    build_superoperator,
    cptp_diagnostics,
)
from fracdyn.subordination import (
    _subordinated_matrix,
    subordinated_propagate,
    trajectory_estimate,
)

ALPHAS = (0.4, 0.7, 0.9)
TIMES = (0.5, 3.0)


def _complex_normal(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _draw(rng, d):
    """A random Hermitian H, two random jumps at rates in [0.1, 0.5), a
    random pure state and a random Hermitian observable."""
    a = _complex_normal(rng, d)
    jumps = tuple((_complex_normal(rng, d) / d, rng.uniform(0.1, 0.5))
                  for _ in range(2))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    o = _complex_normal(rng, d)
    return (GKSLGenerator(0.25 * (a + a.conj().T), jumps),
            DensityMatrix(np.outer(psi, psi.conj())), 0.5 * (o + o.conj().T))


_RNG = np.random.default_rng(20251)
FLOWS = [_draw(_RNG, d) for d in (2, 3)]


def _poled_phis(gen, alpha, t):
    """phi = Re s* + |s*| over 2 for the eigenvalues with a principal-sheet
    pole s* = (lambda t^a)^(1/a) (see ``specfun._ml_contour``)."""
    z = np.linalg.eigvals(build_superoperator(gen).matrix) * t**alpha
    theta = np.angle(z)
    phi = np.abs(z) ** (1.0 / alpha) * np.cos(theta / (2.0 * alpha)) ** 2
    return phi[(np.abs(theta) <= alpha * math.pi) & (phi > 1e-15)]


def test_draw_reaches_both_pole_regions():
    phis = np.concatenate([_poled_phis(gen, a, t) for gen, _, _ in FLOWS
                           for a in ALPHAS for t in TIMES])
    assert np.any(phis < 0.1) and np.any(phis > 1.0)


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("flow", range(len(FLOWS)), ids=["d2", "d3"])
def test_three_routes_agree(flow, alpha, t):
    gen, init, obs = FLOWS[flow]
    ml = ml_propagate(gen, alpha, t, init).entries

    sub = subordinated_propagate(gen, alpha, t, init).entries
    assert np.max(np.abs(sub - ml)) <= 1e-10

    fam = fam_solve(gen, alpha, t / 4000, 4000, init).final().entries
    assert np.max(np.abs(fam - ml)) <= 1e-6

    mc = trajectory_estimate(gen, alpha, t, init, obs, 20000, seed=flow)
    assert abs(mc.mean - np.trace(obs @ ml).real) <= 5.0 * mc.stderr

    phi = _subordinated_matrix(build_superoperator(gen).matrix, alpha, t)
    trace_defect, min_choi = cptp_diagnostics(Superoperator(gen.dim, phi))
    assert trace_defect <= 1e-10 and min_choi >= -1e-8
