"""Unit tests for fracdyn.specfun: Mittag-Leffler and M-Wright functions.

Frozen reference values were generated with mpmath at 40-60 significant
digits using two independent representations (the defining power series where
it is numerically admissible, and the Stieltjes spectral integral
E_a(-x) = int_0^oo K_a(r) exp(-r x^(1/a)) dr elsewhere).  Complex arguments
are checked against a live mpmath series (the ``ml_mpmath`` fixture).
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx, gamma as _gamma, wofz

from fracdyn import (
    DomainError,
    FractionalOrder,
    gamma_fn,
    m_wright,
    mittag_leffler,
    ml_partial_sum,
)
from fracdyn import fitting, specfun
from fracdyn.specfun import m_wright_asymptotic


# ----------------------------------------------------------------------------
# gamma_fn and FractionalOrder
# ----------------------------------------------------------------------------

def test_gamma_half_is_sqrt_pi():
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) <= 1e-13


def test_gamma_integers():
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)
    assert gamma_fn(1.0) == 1.0


@pytest.mark.parametrize("bad", [0.0, -1.0, -2.0])
def test_gamma_poles_raise(bad):
    with pytest.raises(DomainError):
        gamma_fn(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gamma_non_finite_raises(bad):
    with pytest.raises(DomainError, match="finite"):
        gamma_fn(bad)


def test_gamma_overflow_and_underflow():
    # Gamma overflows past 171.62 and underflows to a signed zero on the far
    # negative axis: sign (-1)^181 on (-181, -180), (-1)^182 on (-182, -181).
    assert math.isfinite(gamma_fn(171.62))
    for x in (171.63, 180.0, 1e6):
        assert gamma_fn(x) == math.inf
    assert gamma_fn(1e-320) == math.inf and gamma_fn(-1e-320) == -math.inf
    for x, sign in ((-180.5, -1.0), (-181.5, 1.0)):
        assert gamma_fn(x) == 0.0 and math.copysign(1.0, gamma_fn(x)) == sign


def test_gamma_matches_mpmath_across_the_real_line():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    xs = np.concatenate([np.linspace(-170.55, 171.55, 1201),
                         [-2.5, -1.5, -0.5, -1e-5, 1e-5, 1e-300]])
    for x in xs[xs != np.round(xs)]:
        want = mp.gamma(mp.mpf(float(x)))
        assert abs(gamma_fn(x) - want) <= 2e-15 * abs(want), x


def test_fractional_order_accepts_unit_interval():
    assert FractionalOrder(0.5).alpha == 0.5
    assert FractionalOrder(1.0).alpha == 1.0


@pytest.mark.parametrize("bad", [0.0, -0.3, 1.0 + 1e-9, 2.0, float("nan")])
def test_fractional_order_rejects_out_of_range(bad):
    with pytest.raises((DomainError, ValueError)):
        FractionalOrder(bad)


def test_functions_accept_fractional_order_instances():
    a = FractionalOrder(0.5)
    assert mittag_leffler(a, -1.0) == pytest.approx(
        mittag_leffler(0.5, -1.0), rel=1e-15
    )
    assert m_wright(a, 1.0) == pytest.approx(m_wright(0.5, 1.0), rel=1e-15)


# ----------------------------------------------------------------------------
# Mittag-Leffler: identities and frozen references
# ----------------------------------------------------------------------------

def test_ml_alpha_one_is_exp():
    z = np.linspace(-30.0, 5.0, 141)
    vals = np.array([mittag_leffler(1.0, zz) for zz in z])
    assert np.allclose(vals, np.exp(z), rtol=1e-12, atol=0.0)


def test_ml_batch_alpha_one_is_exp_without_spectral_basis():
    # alpha = 1 is exp itself: no contour, no points x nodes temporaries.
    x = np.linspace(0.0, 30.0, 400)
    tracemalloc.start()
    try:
        vals = mittag_leffler(1.0, -x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(vals, np.exp(-x))
    assert peak < 50 * 2**20


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0])
def test_ml_at_zero_is_one(alpha):
    assert mittag_leffler(alpha, 0.0) == 1.0
    assert mittag_leffler(alpha, -0.0) == 1.0
    for first in [-2.0, 3.0, -2.0 + 1j]:
        assert np.all(mittag_leffler(alpha, np.array([first, 0.0, -0.0]))[1:]
                      == 1.0)


# (alpha, x, E_alpha(-x)) frozen from mpmath (series branch, 50 digits).
_ML_NEG_TABLE = [
    (0.1, 0.5, 0.65432446028800192845),
    (0.3, 0.5, 0.63264900594359902246),
    (0.5, 1.0, 0.42758357615580700441),
    (0.5, 10.0, 0.05614099274382258586),  # = exp(100) erfc(10)
    (0.7, 2.0, 0.21378672701529727534),
    (0.9, 1.0, 0.37606602142464187902),
    (0.99, 3.0, 0.053451867506199626849),
    (0.99999, 2.0, 0.13533817009362525507),
]

# Large-argument cases frozen from the mpmath spectral-integral reference.
_ML_NEG_TABLE_BIG = [
    (0.3, 5.0, 0.13708086902027063888),
    (0.3, 15.848931924611133, 0.046841984565450128506),
    (0.7, 300.0, 0.0011172307483615784488),
    (0.5, 1.0e4, 5.6418958072680834448e-05),
    (0.05, 1.2, 0.44735225261028476712),
    # Series branch, 60 digits: alpha close to 1 resolves the power-law
    # tail next to exp(-x).
    (0.9999, 10.0, 5.844673543932704351e-05),
    (0.99999, 10.0, 4.670462991367150875e-05),
]


@pytest.mark.parametrize("alpha,x,expected", _ML_NEG_TABLE)
def test_ml_negative_axis_reference(alpha, x, expected):
    assert mittag_leffler(alpha, -x) == pytest.approx(expected, rel=2e-12)


@pytest.mark.parametrize("alpha,x,expected", _ML_NEG_TABLE_BIG)
def test_ml_negative_axis_reference_large(alpha, x, expected):
    assert mittag_leffler(alpha, -x) == pytest.approx(expected, rel=1e-11)


def test_ml_half_equals_erfcx():
    # E_{1/2}(-x) = exp(x^2) erfc(x) = erfcx(x) for x >= 0.
    for x in np.logspace(-3, 3, 61):
        assert mittag_leffler(0.5, -x) == pytest.approx(erfcx(x), rel=5e-13)


@pytest.mark.parametrize(
    "alpha,z,expected",
    [(0.5, 2.0, 108.94090438997797241), (0.8, 5.0, 2208.0643575864449017)],
)
def test_ml_positive_argument_reference(alpha, z, expected):
    assert mittag_leffler(alpha, z) == pytest.approx(expected, rel=1e-11)


def test_ml_positive_overflow_returns_inf():
    assert mittag_leffler(0.5, 1.0e6) == math.inf


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.8, 0.95, 0.999])
def test_ml_negative_axis_bounds_and_monotone(alpha):
    x = np.logspace(-3, 3, 121)
    vals = np.array([mittag_leffler(alpha, -xx) for xx in x])
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)
    # Complete monotonicity implies strict decrease in |z|.
    assert np.all(np.diff(vals) < 0.0)


@pytest.mark.parametrize("alpha", [0.5, 0.7])
def test_ml_long_time_power_law(alpha):
    t = 1.0e4
    asym = t ** (-alpha) / _gamma(1.0 - alpha)
    val = mittag_leffler(alpha, -(t**alpha))
    assert abs(val - asym) / asym <= 0.02


def test_ml_long_time_power_law_alpha03_first_correction():
    # At alpha=0.3, t=1e4 the one-term power-law asymptote is off by the exact
    # first correction Gamma(1-a)/(Gamma(1-2a) t^a) = 3.69e-2; the computed
    # deviation must match that mathematical value, which exceeds 2%.
    alpha, t = 0.3, 1.0e4
    asym = t ** (-alpha) / _gamma(1.0 - alpha)
    val = mittag_leffler(alpha, -(t**alpha))
    dev = abs(val - asym) / asym
    correction = _gamma(1.0 - alpha) / (_gamma(1.0 - 2.0 * alpha) * t**alpha)
    assert 0.03 < dev < 0.04
    assert dev == pytest.approx(correction, rel=0.02)


# The real-axis fold sums the shared contour's conjugate node pairs in real
# arithmetic.  The complex path is the same sum without the fold, so the two
# agree to rounding; the series reference is limited as in the left half
# plane test below.
@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.9, 0.99, 0.999])
def test_ml_fold_matches_complex_path_and_mpmath(alpha, ml_mpmath):
    z = -np.logspace(-3, 6, 91)
    got = mittag_leffler(alpha, z)
    np.testing.assert_allclose(got, mittag_leffler(alpha, z + 0j).real,
                               rtol=0.0, atol=1e-12)
    near = np.abs(z) ** (1.0 / alpha) <= 100.0
    want = np.array([ml_mpmath(alpha, zz).real for zz in z[near]])
    np.testing.assert_allclose(got[near], want, rtol=0.0, atol=1e-12)


def test_ml_mixed_sign_array_equals_scalar_calls():
    z = np.array([-1.0e200, -1.0e150, -1.0e4, -30.0, -0.5, -0.0, 0.0,
                  1.0e-3, 0.7, 4.0, 60.0, -7.0])
    with mock.patch("fracdyn.specfun._ml_contour",
                    wraps=specfun._ml_contour) as spy:
        vals = mittag_leffler(0.7, z)
    # Positive z, and z from -1e150 down, too large for the fold's d^2,
    # take the complex path with its pole contour and residue.
    (a, passed), = [c.args for c in spy.call_args_list]
    complex_path = (z > 0.0) | (z <= -1.0e150)
    assert a == 0.7 and np.array_equal(passed, z[complex_path])
    scalar = np.array([mittag_leffler(0.7, zz) for zz in z])
    # The fold sums each element on its own; pole contours are padded to
    # the longest one in their chunk, which moves the last bit.
    assert np.array_equal(vals[~complex_path], scalar[~complex_path])
    np.testing.assert_allclose(vals, scalar, rtol=1e-14, atol=0.0)


def test_ml_slope_closed_forms():
    # d/dz E_{1/2}(z) at z = -x is 2/sqrt(pi) - 2 x erfcx(x); at z = 0 it is
    # 1/Gamma(1 + alpha); at alpha = 1 it is exp.
    for x in np.logspace(-3, 3, 31):
        want = 2.0 / math.sqrt(math.pi) - 2.0 * x * erfcx(x)
        assert specfun._ml_slope(0.5, -x) == pytest.approx(want, rel=1e-9,
                                                           abs=1e-13)
    for alpha in [0.05, 0.3, 0.7, 0.99]:
        assert specfun._ml_slope(alpha, 0.0) == pytest.approx(
            1.0 / _gamma(1.0 + alpha), rel=1e-11)
    assert specfun._ml_slope(1.0, -2.0) == math.exp(-2.0)


def test_ml_fold_array_contract():
    # The non-empty ones take the fold alone; empty ones return empty.
    for shape in [(), (5,), (3, 4), (0,), (2, 0)]:
        z = -np.arange(math.prod(shape), dtype=float).reshape(shape)
        vals = mittag_leffler(0.6, z)
        if shape == ():
            assert type(vals) is float
        else:
            assert vals.shape == shape and vals.dtype == np.float64
        for zz, v in zip(z.ravel(), np.ravel(vals)):
            assert v == mittag_leffler(0.6, float(zz))


# ----------------------------------------------------------------------------
# Mittag-Leffler: complex plane and array contract
# ----------------------------------------------------------------------------

# Left half plane, imaginary axis included: where GKSL generator eigenvalues
# lie.  Points with |z|^(1/alpha) > 100 are left out, since the series
# reference needs about that many digits and terms.
_ML_GRID_ABS = np.logspace(-2, math.log10(30.0), 9)
_ML_GRID_ARG = np.linspace(math.pi / 2, math.pi, 7)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.6, 0.8, 0.9, 0.95, 0.99])
def test_ml_left_half_plane_against_mpmath(alpha, ml_mpmath):
    z = (_ML_GRID_ABS[:, None] * np.exp(1j * _ML_GRID_ARG)).ravel()
    z = z[np.abs(z) ** (1.0 / alpha) <= 100.0]
    want = np.array([ml_mpmath(alpha, zz) for zz in z])
    got = mittag_leffler(alpha, z)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    # Conjugate arguments give conjugate values.
    np.testing.assert_allclose(mittag_leffler(alpha, z.conj()), want.conj(),
                               rtol=0.0, atol=1e-12)


def test_ml_half_complex_closed_form():
    # E_{1/2}(z) = exp(z^2) erfc(-z) = wofz(-i z), poles included.
    x = np.linspace(-6.0, 6.0, 41)
    z = x[:, None] + 1j * x[None, :]
    np.testing.assert_allclose(mittag_leffler(0.5, z), wofz(-1j * z),
                               rtol=1e-12, atol=1e-12)


# Poled z = r e^(i c a pi), with phi = Re s* + |s*| over 2 = r cos^2(c pi/2)
# (s* = z^(1/a)): just below and above the switch from the region right of
# the pole to the region left of it (phi = 0.2735 and 0.2736), and right of
# the pole at the edge of the pole sector (c = 0.99; r = 40 and 200, since
# the series reference needs about r digits and r / a terms).
_ML_POLE_TABLE = [(a, phi, c) for a in (0.5, 0.9, 0.99)
                  for phi, c in ((0.2735, 0.0), (0.2736, 0.0), (0.2735, 0.9),
                                 (0.2736, 0.9), (0.01, 0.99), (0.05, 0.99))]


@pytest.mark.parametrize("alpha, phi, c", _ML_POLE_TABLE)
def test_ml_pole_regions_against_mpmath(alpha, phi, c, ml_mpmath):
    r = phi / math.cos(0.5 * math.pi * c) ** 2
    z = r**alpha * complex(math.cos(c * alpha * math.pi),
                           math.sin(c * alpha * math.pi))
    assert mittag_leffler(alpha, z) == pytest.approx(ml_mpmath(alpha, z),
                                                     rel=1e-13)


def test_ml_pole_contour_length(monkeypatch):
    # The longest pole contour, 327 nodes, is at the region switch.  Real
    # z = phi^a > 0 puts the pole at s* = phi.
    built = []

    def contour(a, mu, h, n):
        built.append(2 * n + 1)
        return _contour(a, mu, h, n)

    _contour = specfun._contour
    monkeypatch.setattr(specfun, "_contour", contour)
    for alpha in (0.5, 0.9):
        mittag_leffler(alpha, np.logspace(-15, 4, 2000) ** alpha)
    assert max(built) <= 327


def _direct_contour(a, mu, h, n):
    u = h * np.arange(-n, n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    sa = s**a
    return sa, (h / math.pi) * mu * (1.0 + 1j * u) * np.exp(s) * sa / s


def test_contours_from_the_prefix_are_the_direct_formula():
    # The shared contour takes its alpha-free part from a cached prefix,
    # the pole contours from a fresh one; both keep the bits of the direct
    # formula.  Pole rows: each region up to the switch at phi = 0.2735.
    mu, h, n = specfun._capped_contour(0.0)
    left = specfun._contour_left_of_pole(np.array([0.2736, 3.0, 40.0]))
    right = specfun._capped_contour(
        (specfun._POLE_GAP + np.sqrt([1e-6, 0.01, 0.2735])) ** 2)
    poles = [(np.broadcast_to(m, (3,)), np.broadcast_to(hh, (3,)),
              int(nn.max())) for m, hh, nn in (left, right)]
    for a in np.linspace(0.005, 0.995, 199):
        a = float(a)
        for got, want in zip(specfun._shared_contour(a),
                             _direct_contour(a, mu, float(h), int(n))):
            assert np.array_equal(got, want)
        for m, hh, nn in poles:
            for got, want in zip(
                    specfun._contour(a, m[:, None], hh[:, None], nn),
                    _direct_contour(a, m[:, None], hh[:, None], nn)):
                assert np.array_equal(got, want)


def _folded_half(a):
    """The k >= 0 half of the shared contour, the weights of k >= 1
    doubled, as the fold's real arrays."""
    sa, w = specfun._shared_contour(a)
    k0 = sa.size // 2
    sa, w = sa[k0:], w[k0:].copy()
    w[1:] *= 2.0
    return sa.real, sa.imag**2, w.real, w.imag * sa.imag


def test_folded_contour_is_the_doubled_half_of_the_shared_contour():
    # The fold builds its 28 nodes from a doubled half prefix; doubling is
    # exact, so the bits are those of the shared contour's half.  At
    # alpha = 0.5 a scalar power may take numpy's square-root path, which
    # an array of exponents would not.
    alphas = [float(a) for a in fitting._ALPHA_GRID]
    alphas += [float(a) for a in np.linspace(0.005, 0.995, 199)]
    for a in alphas + [0.9995, 0.9999]:
        got = specfun._folded_contour(a)
        assert len(got) == 4 and got[0].size == 28
        for g, want in zip(got, _folded_half(a)):
            assert np.array_equal(g, want)


def _parent_real_ml(a, z):
    """E_a(z) for real z as the real path sums it: the folded half of the
    shared contour where -1e150 < z <= 0, the complex sum elsewhere."""
    flat = np.asarray(z, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if a == 1.0:
            out = np.exp(flat)
        else:
            sr, si2, wr, wisi = _folded_half(a)
            fold = (flat <= 0.0) & (flat > -1e150)
            out = np.empty(flat.shape)
            d = sr - flat[fold, None]
            out[fold] = ((d * wr + wisi) / (d * d + si2)).sum(axis=1)
            out[~fold] = specfun._ml_contour(
                a, flat[~fold].astype(complex)).real
            out[flat == 0.0] = 1.0
    return out[0].item() if np.ndim(z) == 0 else out.reshape(np.shape(z))


_REAL_DISPATCH_CASES = {
    "zeros": np.array([-2.0, 0.0, -0.0, -1e-300, -7.5]),
    "negative zero only": np.array([-0.0, -3.0]),
    "at the fold bound": np.array([-1.0, -1e150, -2.0]),
    "just inside the bound": np.array([-0.99e150, -1.0]),
    "one positive": np.array([-4.0, -0.5, 0.25, -9.0]),
    "empty": np.zeros(0),
    "empty 2-d": np.zeros((2, 0)),
    "0-d array": np.array(-1.5),
    "python float": -1.5,
    "2-d grid": -np.logspace(-3, 6, 1200).reshape(30, 40),
}


@pytest.mark.parametrize("case", sorted(_REAL_DISPATCH_CASES))
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.7, 0.9999, 1.0])
def test_ml_real_dispatch_keeps_the_bits(case, alpha):
    z = _REAL_DISPATCH_CASES[case]
    got = mittag_leffler(alpha, z)
    want = _parent_real_ml(alpha, z)
    if np.ndim(z) == 0:
        assert type(got) is float and got == want
    else:
        assert got.dtype == np.float64 and got.shape == np.shape(z)
        # Bits, the sign of zero included.
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ml_real_dispatch_refuses_non_finite(bad):
    for z in (bad, np.array([-1.0, bad]), np.array([[bad, -2.0]])):
        with pytest.raises(DomainError, match="mittag_leffler"):
            mittag_leffler(0.6, z)


@pytest.mark.parametrize("alpha", [1e-3, 0.05, 0.5, 0.6, 0.99, 0.9999])
def test_ml_fold_raises_no_floating_point_flag(alpha):
    # The fold runs outside np.errstate: d^2 stays finite down to the
    # bound and the denominator is positive.  Underflow is numpy's default
    # ignore.
    z = np.concatenate(([-0.99e150, -1e-300, 0.0, -0.0],
                        -np.logspace(-12, 149, 200)))
    with np.errstate(all="raise", under="ignore"):
        vals = mittag_leffler(alpha, z)
        assert mittag_leffler(alpha, -0.99e150) == vals[0]
    assert np.all(np.isfinite(vals))


def test_ml_array_contract():
    assert type(mittag_leffler(0.6, -1.5)) is float
    assert type(mittag_leffler(0.6, np.float64(-1.5))) is float
    assert type(mittag_leffler(0.6, np.array(-1.5))) is float
    assert type(mittag_leffler(0.6, -1.5 + 0.5j)) is complex
    assert type(mittag_leffler(0.6, np.array(-1.5 + 0.5j))) is complex
    z = np.array([[-3.0, -0.5, 0.0], [0.2, 2.0, -40.0]])
    vals = mittag_leffler(0.6, z)
    assert vals.shape == z.shape and vals.dtype == np.float64
    for zz, v in zip(z.ravel(), vals.ravel()):
        assert v == pytest.approx(mittag_leffler(0.6, float(zz)), rel=1e-14)
    cvals = mittag_leffler(0.6, z[0] + 1j * z[1])
    assert cvals.shape == (3,) and cvals.dtype == np.complex128
    for real_shape in [(0,), (2, 0)]:
        empty = mittag_leffler(0.6, np.zeros(real_shape))
        assert empty.shape == real_shape and empty.dtype == np.float64
    assert mittag_leffler(0.6, np.zeros(0, complex)).dtype == np.complex128
    # Real arguments in a complex array give real values.
    assert mittag_leffler(0.6, np.array([-2.0 + 0j]))[0].imag == 0.0


def test_ml_positive_beyond_float_range_is_inf():
    for alpha in [0.3, 0.8, 0.99]:
        assert mittag_leffler(alpha, 1.0e300) == math.inf
        vals = mittag_leffler(alpha, np.array([1.0e4, 1.0e300]))
        assert np.all(vals == math.inf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(1.0, math.nan)])
def test_ml_non_finite_element_raises(bad):
    for z in [np.array([-1.0, 0.5, bad, 2.0]),
              np.array([-1.0, -0.5, bad, -2.0])]:
        with pytest.raises(DomainError, match="mittag_leffler"):
            mittag_leffler(0.7, z)
    with pytest.raises(DomainError):
        mittag_leffler(0.7, bad)


# ----------------------------------------------------------------------------
# ml_partial_sum
# ----------------------------------------------------------------------------

def test_partial_sum_trivial():
    value, bound = ml_partial_sum(1.0, -1.0, 0)
    assert value == 1.0
    assert bound == pytest.approx(1.0, rel=1e-15)


def test_partial_sum_converged_matches_oracle():
    value, _ = ml_partial_sum(0.5, -1.0, 50)
    assert value == pytest.approx(0.4275835761558070, abs=1e-12)


def test_partial_sum_overflow_is_domain_error():
    # 100^k overflows float64 from k = 155 on, long before the terms with
    # their Gamma factors would.
    with pytest.raises(DomainError, match="ml_partial_sum"):
        ml_partial_sum(1.0, 100.0, 200)
    with pytest.raises(DomainError):
        ml_partial_sum(0.5, -100.0, 200)


def test_partial_sum_explicit_terms():
    value, bound = ml_partial_sum(0.5, 1.0, 3)
    expected = 1.0 + 1.0 / gamma_fn(1.5) + 1.0 / gamma_fn(2.0) + 1.0 / gamma_fn(2.5)
    assert value == pytest.approx(expected, rel=1e-14)
    assert bound == pytest.approx(1.0 / gamma_fn(3.0), rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(min_value=0.02, max_value=1.0, allow_nan=False),
    z=st.floats(min_value=-2.0, max_value=0.0, allow_nan=False),
    n_terms=st.integers(min_value=0, max_value=80),
)
def test_partial_sum_bound_property(alpha, z, n_terms):
    # The first-omitted-term bound is valid in the alternating regime z <= 0
    # (for z > 0 the series is monotone and the tail exceeds its first term).
    value, bound = ml_partial_sum(alpha, z, n_terms)
    exact = mittag_leffler(alpha, z)
    assert abs(value - exact) <= bound * (1.0 + 1e-12) + 1e-13


# ----------------------------------------------------------------------------
# M-Wright
# ----------------------------------------------------------------------------

def test_mw_half_is_gaussian():
    z = np.linspace(0.0, 25.0, 126)
    vals = np.array([m_wright(0.5, zz) for zz in z])
    exact = np.exp(-(z**2) / 4.0) / math.sqrt(math.pi)
    assert np.max(np.abs(vals - exact)) <= 1e-10


def test_mw_at_zero():
    for alpha in (0.3, 0.5, 0.6, 0.9):
        assert m_wright(alpha, 0.0) == pytest.approx(
            1.0 / gamma_fn(1.0 - alpha), rel=1e-13
        )


# (alpha, z, M_alpha(z)) frozen from the mpmath series (50 digits).
_MW_TABLE = [
    (0.3, 0.8, 0.45370429604834746984),
    (0.3, 4.0, 0.021334527126339507038),
    (0.5, 2.0, 0.2075537487102974),
    (0.7, 2.5, 0.067068727375303573576),
    (0.9, 1.1, 1.2663766366251270788),
    (0.95, 1.3, 0.33390688210629807221),
]


@pytest.mark.parametrize("alpha,z,expected", _MW_TABLE)
def test_mw_reference_values(alpha, z, expected):
    assert m_wright(alpha, z) == pytest.approx(expected, abs=1e-10)


# (alpha, z, M_alpha(z)) from 40-digit mpmath: the power series, and a
# trapezoid rule on the steepest-descent path whose step, halved, changes
# no digit; the two agree to 1e-40 where both converge.  The points lie on
# both paths, near the peak as alpha -> 1 and in the tails.
_MW_RELATIVE = [
    (0.95, 1.3531815907953977, 5.793139723096245062e-3),
    (0.8, 2.55, 3.807351127868813182e-4),
    (0.8, 2.5, 8.501774204953106776e-4),
    (0.8, 1.5, 0.6554283541751052592),
    (0.9, 1.5, 0.4557525105706377596),
    (0.6, 4.8, 6.920663883756804610e-5),
    (0.3, 9.0, 2.307675158119753971e-5),
    (0.5, 5.695, 1.698455279819151094e-4),
    (0.01, 25.0, 1.530841984105627334e-11),
    (0.99, 0.01, 1.025822919500205125e-2),
]
# The ends of the alpha range, held to 1e-11: at 0.999 the fixed path sums
# to M(0) = 1/Gamma(0.001) from terms of order 1; the last two rows are
# M = 1e-30 and 1e-300 on the steep side of the peak.
_MW_ENDS = [
    (1e-06, 0.0, 0.9999994227836792204),
    (1e-06, 8.538907650590206, 1.957047721061017232e-4),
    (1e-06, 610.6691306373269, 6.164800058905861397e-266),
    (0.999, 0.01, 1.020862746648488279e-3),
    (0.999, 0.5003855202667099, 3.992724816611427151e-3),
    (0.999, 1.0003074003908434, 25.27472240643066728),
    (0.999, 1.0004505878761525, 26.21369104526289441),
    (0.999, 1.0123294052454164, 1.000536236545346331e-30),
    (0.999, 1.0145634003457498, 1.000059480826459714e-300),
]


@pytest.mark.parametrize(
    "alpha,z,expected,rtol",
    [row + (1e-12,) for row in _MW_RELATIVE]
    + [row + (1e-11,) for row in _MW_ENDS])
def test_mw_relative_accuracy(alpha, z, expected, rtol):
    assert m_wright(alpha, z) == pytest.approx(expected, rel=rtol, abs=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [5e-324, 1e-300, 1e-20])
def test_mw_alpha_to_zero_is_exponential(alpha):
    z = np.array([0.0, 0.5, 5.0, 30.0])
    np.testing.assert_allclose(m_wright(alpha, z), np.exp(-z), rtol=1e-12)


@pytest.mark.filterwarnings("error")
def test_mw_far_tail_is_zero():
    from fracdyn.subordination import OperationalClock, levy_density

    assert m_wright(0.3, 1e300) == 0.0
    assert levy_density(OperationalClock(0.3, 1.0), 1e300) == 0.0


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_mw_nonnegative(alpha):
    z = np.linspace(0.0, 30.0, 301)
    vals = np.array([m_wright(alpha, zz) for zz in z])
    assert np.all(vals >= 0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_mw_normalization(alpha):
    from scipy.integrate import quad

    total, err = quad(lambda z: m_wright(alpha, z), 0.0, 60.0, limit=300)
    assert abs(total - 1.0) <= 1e-6
    assert err < 1e-6


def test_mw_alpha_one_raises():
    with pytest.raises(DomainError):
        m_wright(1.0, 0.5)
    with pytest.raises(DomainError, match="point mass"):
        m_wright_asymptotic(1.0, 2.0)


def test_mw_negative_argument_raises():
    with pytest.raises(DomainError):
        m_wright(0.5, -0.1)
    with pytest.raises(DomainError):
        m_wright(0.5, np.array([[0.1, 0.2], [-0.1, 0.3]]))
    with pytest.raises(DomainError):
        m_wright(0.5, np.array([0.1, np.inf]))
    # M_alpha is a real density: complex z is refused, not cast to real.
    for z in (1j, np.array([0.5, 1.0 + 1.0j])):
        with pytest.raises(DomainError, match="real"):
            m_wright(0.5, z)


def test_mw_asymptotic_half_is_exact_gaussian():
    for z in (2.0, 5.0, 10.0):
        exact = math.exp(-(z**2) / 4.0) / math.sqrt(math.pi)
        assert m_wright_asymptotic(0.5, z) == pytest.approx(exact, rel=1e-12)


def test_mw_asymptotic_approaches_function():
    # Leading-order saddle estimate: ~10% accuracy is expected at moderate z.
    for alpha, z in ((0.3, 12.0), (0.7, 8.0)):
        ratio = m_wright_asymptotic(alpha, z) / m_wright(alpha, z)
        assert 0.85 < ratio < 1.15
