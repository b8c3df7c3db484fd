"""Unit tests for fracdyn.kernels: power-law kernels and SOE compression."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc

from fracdyn.errors import AccuracyError, DomainError, ValidationError
from fracdyn.kernels import (
    KernelKind,
    SOEKernel,
    complete_monotonicity_probe,
    kernel_eval,
    soe_compress,
)
from fracdyn.specfun import FractionalOrder


# ----------------------------------------------------------------------------
# kernel_eval
# ----------------------------------------------------------------------------

def test_volterra_reference_value():
    assert kernel_eval(KernelKind.Volterra, 0.5, 1.0) == pytest.approx(
        0.5641895835477563, rel=1e-12
    )


def test_volterra_memoryless_limit():
    assert kernel_eval(KernelKind.Volterra, 1.0, 7.3) == 1.0


def test_caputo_inner_reference_value():
    assert kernel_eval(KernelKind.CaputoInner, 0.5, 4.0) == pytest.approx(
        0.28209479177387814, rel=1e-12
    )


def test_differential_convolution_is_negative_for_small_alpha():
    # k_alpha = t^(alpha-2)/Gamma(alpha-1); Gamma(-0.5) = -2 sqrt(pi) < 0.
    val = kernel_eval(KernelKind.DifferentialConvolution, 0.5, 1.0)
    assert val == pytest.approx(1.0 / (-2.0 * math.sqrt(math.pi)), rel=1e-12)
    assert val < 0.0


def test_differential_convolution_vanishes_at_alpha_one():
    # k_1 = t^(-1) / Gamma(0): 1/Gamma is 0 at its pole, and continuous there.
    t = np.array([1e-3, 0.5, 1.0, 40.0])
    assert kernel_eval("differential_convolution", 1.0, 2.0) == 0.0
    assert np.all(kernel_eval("differential_convolution", 1.0, t) == 0.0)
    near = kernel_eval("differential_convolution", 1.0 - 1e-9, t)
    np.testing.assert_allclose(near, -1e-9 / t, rtol=1e-6)


def test_kernel_eval_accepts_strings_and_arrays():
    t = np.array([0.5, 1.0, 2.0])
    vals = kernel_eval("volterra", 0.5, t)
    assert vals.shape == (3,)
    for ti, vi in zip(t, vals):
        assert vi == kernel_eval(KernelKind.Volterra, 0.5, float(ti))


@pytest.mark.parametrize("bad_t", [0.0, -1.0, math.inf, math.nan])
def test_kernel_eval_rejects_nonpositive_t(bad_t):
    with pytest.raises(DomainError):
        kernel_eval(KernelKind.Volterra, 0.5, bad_t)


def test_kernel_eval_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        kernel_eval("not_a_kernel", 0.5, 1.0)


@pytest.mark.parametrize("alpha", [0.35, 0.7])
def test_differential_convolution_is_derivative_of_volterra(alpha):
    t = np.linspace(0.5, 50.0, 120)
    h = t * 1e-5
    dK = (
        kernel_eval(KernelKind.Volterra, alpha, t + h)
        - kernel_eval(KernelKind.Volterra, alpha, t - h)
    ) / (2.0 * h)
    k = kernel_eval(KernelKind.DifferentialConvolution, alpha, t)
    assert np.max(np.abs(dK - k) / np.abs(k)) <= 1e-6


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_volterra_laplace_transform(alpha, s):
    # int_0^oo e^(-st) K_alpha(t) dt = s^(-alpha); the [T, oo) tail is the
    # upper incomplete gamma function, added in closed form.
    T = 80.0 / s
    body, _ = quad(
        lambda t: math.exp(-s * t) * kernel_eval(KernelKind.Volterra, alpha, t),
        0.0,
        T,
        limit=200,
    )
    tail = s ** (-alpha) * gammaincc(alpha, s * T)
    assert body + tail == pytest.approx(s ** (-alpha), rel=1e-6)


# ----------------------------------------------------------------------------
# soe_compress / SOEKernel
# ----------------------------------------------------------------------------

def _fresh_log_grid(t_min, t_max, n=400, seed=20240817):
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(math.log(t_min), math.log(t_max), n))


def _max_rel_err(kernel, alpha, grid):
    exact = kernel_eval(KernelKind.Volterra, alpha, grid)
    return np.max(np.abs(kernel.evaluate(grid) - exact) / exact)


def test_soe_canonical_case_under_80_terms():
    k = soe_compress(0.5, 1e-2, 1e2, 1e-6)
    assert k.n_terms <= 80
    assert _max_rel_err(k, 0.5, _fresh_log_grid(1e-2, 1e2)) <= 1e-6


@pytest.mark.parametrize("alpha,tol", [(0.05, 1e-6), (0.3, 1e-6), (0.6, 1e-6),
                                       (0.8, 1e-8), (0.95, 1e-7)])
def test_soe_fresh_random_grid_audit(alpha, tol):
    t_min, t_max = 1e-3, 1e3
    k = soe_compress(alpha, t_min, t_max, tol)
    assert k.n_terms <= 256
    assert _max_rel_err(k, alpha, _fresh_log_grid(t_min, t_max, seed=99)) <= tol


@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.9])
@pytest.mark.parametrize("t_max", [0.02, 1.0, 100.0])
def test_soe_meets_1e_10(alpha, t_max):
    k = soe_compress(alpha, 0.01, t_max, 1e-10)
    assert _max_rel_err(k, alpha, _fresh_log_grid(0.01, t_max, seed=7)) <= 1e-10


@pytest.mark.parametrize("alpha", [0.01, 0.5, 0.999])
@pytest.mark.parametrize("t_min, t_max", [(1e-9, 1e9), (1.0, 1.0)])
@pytest.mark.parametrize("tol", [1e-4, 1e-13])
def test_soe_sweep_corners(alpha, t_min, t_max, tol):
    # alpha = 0.999 puts most of the Stieltjes mass at rates that underflow;
    # those nodes become one rate-0 mode.
    k = soe_compress(alpha, t_min, t_max, tol)
    assert k.n_terms <= 256
    grid = (_fresh_log_grid(t_min, t_max, n=2000, seed=11)
            if t_min < t_max else np.array([t_min]))
    assert _max_rel_err(k, alpha, grid) <= tol


def test_soe_demo_kernel_size():
    # The solver_soe_trajectory demo: h = 1e-3, N = 5000, tol 1e-8.
    assert soe_compress(0.5, 1e-3, 5.0, 1e-8).n_terms <= 40


def test_soe_alpha_one_is_single_constant_mode():
    k = soe_compress(1.0, 0.1, 10.0, 1e-3)
    assert k.terms == ((1.0, 0.0),)
    assert k.evaluate(3.7) == 1.0


def test_soe_degenerate_range_single_point():
    k = soe_compress(0.5, 1.0, 1.0, 1e-3)
    exact = kernel_eval(KernelKind.Volterra, 0.5, 1.0)
    assert abs(k.evaluate(1.0) - exact) / exact <= 1e-3


def test_soe_rates_strictly_increasing():
    k = soe_compress(0.4, 1e-2, 1e2, 1e-6)
    _, rates = k.weights_rates()
    assert np.all(np.diff(rates) > 0.0)


def test_soe_budget_exhaustion_raises_with_achieved():
    # A tolerance below double-precision roundoff.
    with pytest.raises(AccuracyError) as exc:
        soe_compress(0.5, 1e-9, 1e9, 1e-16)
    assert exc.value.achieved is not None
    assert exc.value.achieved > 1e-16


def test_soe_extreme_inputs():
    # Any tolerance above 1 is met by the tol = 1 kernel; a range whose
    # ratio overflows a float runs past the term budget.
    k = soe_compress(0.5, 0.1, 10.0, 1e6)
    assert _max_rel_err(k, 0.5, _fresh_log_grid(0.1, 10.0)) <= 1.0
    with pytest.raises(AccuracyError):
        soe_compress(0.5, 1e-200, 1e200, 1e-6)


@pytest.mark.parametrize("bad", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)])
def test_soe_invalid_range_raises(bad):
    with pytest.raises(DomainError):
        soe_compress(0.5, bad[0], bad[1], 1e-6)


def test_soe_invalid_tol_raises():
    with pytest.raises(DomainError):
        soe_compress(0.5, 0.1, 10.0, 0.0)


def test_soekernel_validates_rate_ordering():
    a = FractionalOrder(0.5)
    with pytest.raises(ValidationError):
        SOEKernel(a, ((1.0, 1.0), (1.0, 0.5)), (0.1, 1.0), 1e-3)
    with pytest.raises(ValidationError):
        SOEKernel(a, ((1.0, -1.0),), (0.1, 1.0), 1e-3)
    with pytest.raises(ValidationError):
        SOEKernel(a, (), (0.1, 1.0), 1e-3)


def test_soekernel_evaluate_types():
    k = soe_compress(0.5, 0.1, 10.0, 1e-4)
    scalar = k.evaluate(1.0)
    assert isinstance(scalar, float)
    arr = k.evaluate(np.array([1.0, 2.0]))
    assert arr.shape == (2,)
    assert arr[0] == scalar
    assert type(k.evaluate(np.array(1.0))) is float
    grid = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, 7.0]])
    block = k.evaluate(grid)
    assert block.shape == (2, 3)
    assert np.array_equal(block.ravel(), k.evaluate(grid.ravel()))
    for bad in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="SOEKernel.evaluate"):
            k.evaluate(bad)
        with pytest.raises(DomainError):
            k.evaluate(np.array([1.0, bad]))


# ----------------------------------------------------------------------------
# complete_monotonicity_probe
# ----------------------------------------------------------------------------

_GRID = np.logspace(math.log10(0.1), math.log10(10.0), 50)


def test_cm_probe_volterra_order4():
    assert complete_monotonicity_probe(0.5, KernelKind.Volterra, _GRID, 4)


def test_cm_probe_differential_convolution_sign_flip():
    raw = complete_monotonicity_probe(
        0.5, KernelKind.DifferentialConvolution, _GRID, 1
    )
    flipped = complete_monotonicity_probe(
        0.5, KernelKind.DifferentialConvolution, _GRID, 1, negate=True
    )
    assert raw is False
    assert flipped is True


def test_cm_probe_constant_kernel():
    assert complete_monotonicity_probe(1.0, KernelKind.Volterra, _GRID, 3)


def test_cm_probe_caputo_inner_high_order():
    assert complete_monotonicity_probe(0.3, KernelKind.CaputoInner, _GRID, 6)


def test_cm_probe_validates_inputs():
    with pytest.raises(ValidationError):
        complete_monotonicity_probe(0.5, KernelKind.Volterra, _GRID, 7)
    with pytest.raises(ValidationError):
        complete_monotonicity_probe(0.5, KernelKind.Volterra, [1.0, 2.0], 3)
    with pytest.raises(ValidationError):
        complete_monotonicity_probe(0.5, KernelKind.Volterra, [1.0, 1.0, 2.0], 1)
