"""Tests for the spin-boson pure-dephasing oracle.

Closed-form references used throughout (eta, omega_c arbitrary, beta = inf):
    chi != 1:  Q(t) = (2/pi) eta Gamma(chi-1) [1 - Re (1 - i w_c t)^(1-chi)]
    chi == 1:  Q(t) = (eta/pi) ln(1 + w_c^2 t^2)
    C(t) = (2/pi) eta Gamma(chi+1) w_c^2 Re (1 - i w_c t)^(-(chi+1))
obtained by evaluating the defining integrals analytically.  The library
evaluates these forms itself, at finite beta summed term by term over
coth(beta w / 2) = 1 + 2 sum_n e^{-n beta w}.  So they are checked against
three references independent of that sum: 50-digit mpmath at beta = inf,
the Hurwitz-zeta form of the thermal sum in mpmath (the ``thermal_q_mpmath``
and ``thermal_c_mpmath`` fixtures of conftest.py), and the adaptive
quadrature of the defining integrals below, which converges where it is used.
"""

import math
from typing import Optional

import numpy as np
import pytest

from fracdyn.errors import AccuracyError, DomainError, ValidationError
from fracdyn.spinboson import (
    AsymptoticRegime,
    BathSpec,
    CoherenceSeries,
    asymptotic_Q,
    bath_correlation,
    dephasing_Q,
    exact_coherence,
    markov_coherence,
    markov_fit_rate,
    spectral_density,
    tcl_coherence,
)


def q_closed(chi, t, eta=1.0, wc=1.0):
    if chi == 1.0:
        return (eta / math.pi) * math.log(1.0 + (wc * t) ** 2)
    z = (1.0 - 1j * wc * t) ** (1.0 - chi)
    return (2.0 / math.pi) * eta * math.gamma(chi - 1.0) * (1.0 - z.real)


def c_closed(chi, t, eta=1.0, wc=1.0):
    z = (1.0 - 1j * wc * t) ** (-(chi + 1.0))
    return (2.0 / math.pi) * eta * math.gamma(chi + 1.0) * wc * wc * z.real


OHMIC = BathSpec(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Quadrature reference: the defining integrals at any beta, one adaptive
# QUADPACK quadrature per time point.  At finite beta it stops converging for
# sub-Ohmic baths at moderate t (chi = 0.5, beta = 1 from t = 20 on).
# ---------------------------------------------------------------------------

# Truncate the exponential cutoff at this many multiples of omega_c
# (e^-60 ~ 9e-27, far below every quadrature tolerance used here).
_CUTOFF_MULT = 60.0
# Above this many radians of total phase, split off the cosine part and use
# a dedicated oscillatory (Clenshaw-Curtis moment) quadrature.
_OSC_SWITCH = 40.0
_EPS_Q = 1e-13
_QUAD_LIMIT = 500


def _coth_half(beta: float, omega: float) -> float:
    """coth(beta * omega / 2), with the zero-T limit and small-argument series."""
    if math.isinf(beta):
        return 1.0
    x = 0.5 * beta * omega
    if x > 20.0:
        return 1.0
    if x < 1e-8:
        return 1.0 / x + x / 3.0
    return 1.0 / math.tanh(x)


def _one_minus_cos_over_w2(omega: float, t: float) -> float:
    """(1 - cos(omega t)) / omega^2 evaluated without cancellation."""
    x = 0.5 * omega * t
    if abs(x) < 1e-6:
        return 0.5 * t * t * (1.0 - x * x / 3.0)
    s = math.sin(x)
    return 2.0 * s * s / (omega * omega)


def _breakpoints(bath: BathSpec, t: float, lo: float, hi: float) -> Optional[list]:
    pts = {bath.omega_c}
    if t > 0.0:
        pts.add(1.0 / t)
    if not math.isinf(bath.beta):
        pts.add(2.0 / bath.beta)
    inside = sorted(p for p in pts if lo < p < hi)
    return inside or None


def _quad_checked(func, lo, hi, *, what: str, points=None, weight=None,
                  wvar=None) -> float:
    from scipy.integrate import quad

    kwargs = dict(epsabs=_EPS_Q, epsrel=_EPS_Q, limit=_QUAD_LIMIT,
                  full_output=1)
    if weight is not None:
        kwargs["weight"] = weight
        kwargs["wvar"] = wvar
    elif points is not None:
        kwargs["points"] = points
    out = quad(func, lo, hi, **kwargs)
    val, err = out[0], out[1]
    if len(out) > 3 or not math.isfinite(val):
        raise AccuracyError(f"{what}: quadrature did not converge",
                            achieved=err)
    if err > 1e-9:
        raise AccuracyError(
            f"{what}: quadrature error estimate {err:.2e} exceeds tolerance",
            achieved=err)
    return val


def _j_scalar(bath: BathSpec):
    """Scalar fast path for J(w): a plain-math closure for quadrature loops."""
    amp = bath.eta * bath.omega_c ** (1.0 - bath.chi)
    chi = bath.chi
    inv_wc = 1.0 / bath.omega_c

    def j(w: float) -> float:
        return amp * w**chi * math.exp(-w * inv_wc)

    return j


def _q_quadrature(bath: BathSpec, t: float) -> float:
    """Q(t) at one time ``t >= 0`` by adaptive quadrature (any beta)."""
    if t == 0.0:
        return 0.0
    big = _CUTOFF_MULT * bath.omega_c
    pref = 2.0 / math.pi
    jay = _j_scalar(bath)
    beta = bath.beta

    def combined(w: float) -> float:
        if w <= 0.0:
            return 0.0
        return (pref * jay(w)
                * _one_minus_cos_over_w2(w, t) * _coth_half(beta, w))

    if t * big <= _OSC_SWITCH:
        val = _quad_checked(combined, 0.0, big, what="dephasing_Q",
                            points=_breakpoints(bath, t, 0.0, big))
    else:
        # Many oscillations: near field with the combined integrand, then
        # mean part minus a cosine-weighted oscillatory integral.
        split = 1.0 / t

        def mean_part(w: float) -> float:
            return pref * jay(w) / (w * w) * _coth_half(beta, w)

        val = _quad_checked(combined, 0.0, split, what="dephasing_Q")
        val += _quad_checked(mean_part, split, big, what="dephasing_Q",
                             points=_breakpoints(bath, t, split, big))
        val -= _quad_checked(mean_part, split, big, what="dephasing_Q",
                             weight="cos", wvar=t)
    if val < 0.0:
        if val < -1e-9:
            raise AccuracyError(f"dephasing_Q produced negative value {val}")
        return 0.0
    return val


def _c_quadrature(bath: BathSpec, t: float) -> float:
    """C(t) at one time ``t >= 0`` by oscillatory quadrature (any beta)."""
    big = _CUTOFF_MULT * bath.omega_c
    pref = 2.0 / math.pi
    jay = _j_scalar(bath)
    beta = bath.beta

    def envelope(w: float) -> float:
        if w <= 0.0:
            return 0.0
        return pref * jay(w) * _coth_half(beta, w)

    if t * big <= _OSC_SWITCH:
        val = _quad_checked(lambda w: envelope(w) * math.cos(w * t), 0.0, big,
                            what="bath_correlation",
                            points=_breakpoints(bath, t, 0.0, big))
    else:
        split = 1.0 / t
        val = _quad_checked(lambda w: envelope(w) * math.cos(w * t), 0.0,
                            split, what="bath_correlation")
        val += _quad_checked(envelope, split, big, what="bath_correlation",
                             weight="cos", wvar=t)
    return val


# ---------------------------------------------------------------------------
# BathSpec and spectral density
# ---------------------------------------------------------------------------

class TestBathSpec:
    def test_validation(self):
        for bad in (dict(eta=0.0, chi=1.0), dict(eta=1.0, chi=-0.5),
                    dict(eta=1.0, chi=1.0, omega_c=0.0),
                    dict(eta=1.0, chi=1.0, beta=0.0),
                    dict(eta=1.0, chi=math.inf)):
            with pytest.raises(DomainError):
                BathSpec(**bad)
        for field in ("eta", "chi", "omega_c", "beta"):
            # numpy integers are numbers in every field, and are kept as
            # floats; a bool, None or a numeric string is not a number.
            for kind in (np.int8, np.int64, np.uint32):
                bath = BathSpec(**{**dict(eta=1.0, chi=1.0), field: kind(2)})
                assert type(getattr(bath, field)) is float
                assert getattr(bath, field) == 2.0
            for bad in (True, None, "1"):
                with pytest.raises(DomainError, match=f"BathSpec.{field} "):
                    BathSpec(**{**dict(eta=1.0, chi=1.0), field: bad})

    def test_zero_temperature_default(self):
        assert math.isinf(OHMIC.beta)


class TestSpectralDensity:
    def test_reference_values(self):
        assert spectral_density(OHMIC, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )
        assert spectral_density(BathSpec(2.0, 0.5, 2.0), 2.0) == pytest.approx(
            4.0 * math.exp(-1.0), rel=1e-12
        )
        assert spectral_density(BathSpec(1.0, 0.5, 1.0), 0.0) == 0.0

    def test_array_input(self):
        w = np.array([0.0, 0.5, 1.0, 2.0])
        out = spectral_density(OHMIC, w)
        assert out.shape == w.shape
        assert np.allclose(out, w * np.exp(-w))
        block = spectral_density(OHMIC, w.reshape(2, 2))
        assert block.shape == (2, 2)
        assert np.array_equal(block.ravel(), out)
        assert type(spectral_density(OHMIC, np.array(1.0))) is float

    def test_negative_frequency_rejected(self):
        for bad in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="spectral_density"):
                spectral_density(OHMIC, bad)
            with pytest.raises(DomainError, match=f"got {bad!r}$"):
                spectral_density(OHMIC, np.array([[0.5, 1.0], [bad, 2.0]]))


# ---------------------------------------------------------------------------
# Dephasing functional Q(t)
# ---------------------------------------------------------------------------

class TestDephasingQ:
    @pytest.mark.parametrize("chi", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize(
        "t", [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e3, 1e4]
    )
    def test_closed_form(self, chi, t):
        bath = BathSpec(1.0, chi, 1.0)
        assert dephasing_Q(bath, t) == pytest.approx(q_closed(chi, t), abs=1e-9)

    def test_zero_time(self):
        assert dephasing_Q(OHMIC, 0.0) == 0.0

    def test_parameter_scaling(self):
        bath = BathSpec(0.7, 0.5, 2.0)
        assert dephasing_Q(bath, 3.0) == pytest.approx(
            q_closed(0.5, 3.0, eta=0.7, wc=2.0), abs=1e-10
        )

    def test_nonnegative_and_monotone(self):
        for chi in (0.5, 1.0, 1.5):
            bath = BathSpec(1.0, chi, 1.0)
            vals = [dephasing_Q(bath, t) for t in np.linspace(0.0, 20.0, 21)]
            assert all(v >= 0.0 for v in vals)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_finite_temperature(self):
        # coth >= 1, so finite beta can only increase Q; large beta converges
        # to the zero-temperature value.
        q_inf = dephasing_Q(OHMIC, 1.0)
        q_warm = dephasing_Q(BathSpec(1.0, 1.0, 1.0, beta=1.0), 1.0)
        q_cold = dephasing_Q(BathSpec(1.0, 1.0, 1.0, beta=1e6), 1.0)
        assert q_warm > q_inf
        assert q_cold == pytest.approx(q_inf, abs=1e-5)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            dephasing_Q(OHMIC, -1.0)

    @pytest.mark.filterwarnings("error")
    def test_overflow_names_eta(self):
        with pytest.raises(DomainError, match="eta = 1e\\+308"):
            dephasing_Q(BathSpec(1e308, 1.0), [257.5])
        with pytest.raises(DomainError, match="eta"):
            dephasing_Q(BathSpec(1e308, 0.5), 257.5)

    def test_underflow_is_positive_zero(self):
        # Q >= 0: where it underflows (a sub-Ohmic bath at omega_c 1e-200),
        # the zero carries no sign.
        q = dephasing_Q(BathSpec(1.0, 0.5, 1e-200), [0.1, 1.0])
        assert q.tolist() == [0.0, 0.0]
        assert not np.signbit(q).any()
        assert not np.signbit(dephasing_Q(BathSpec(1.0, 0.5, 1e-200), 0.1))


KERNEL_CHIS = [0.05, 0.3, 0.5, 0.999, 1.0, 1.001, 1.5, 3.0]
# Half-decade steps over t in [1e-5, 1e4]: Q spans ~1e-10 to ~1e4 here, so
# the small-t end exercises the cancellation the closed form must avoid.
KERNEL_TIMES = np.geomspace(1e-5, 1e4, 19)
WARM = BathSpec(0.8, 1.0, 1.3, beta=2.0)
# Finite-temperature baths and times at which the quadrature reference
# converges.
QUAD_WARM = {"warm": WARM,
             "chi0.8-beta5": BathSpec(1.0, 0.8, 1.0, beta=5.0),
             "chi1.5-beta2-wc2": BathSpec(1.0, 1.5, 2.0, beta=2.0)}
QUAD_WARM_TIMES = np.concatenate(([0.0], np.geomspace(1e-3, 700.0, 13)))


def q_mpmath(chi, t, eta=1.0, wc=1.0):
    """Q at beta = inf from the closed form in 50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x = mpmath.mpf(wc) * mpmath.mpf(t)
        if chi == 1.0:
            return float(eta / mpmath.pi * mpmath.log1p(x * x))
        c = mpmath.mpf(chi)
        z = mpmath.power(mpmath.mpc(1, -x), 1 - c)
        return float(2 / mpmath.pi * eta * mpmath.gamma(c - 1)
                     * (1 - mpmath.re(z)))


class TestDephasingQKernel:
    """The batch kernel: one closed form at every beta, on whole arrays."""

    @pytest.mark.parametrize("chi", KERNEL_CHIS)
    def test_closed_form_against_mpmath(self, chi):
        got = dephasing_Q(BathSpec(1.0, chi, 1.0), KERNEL_TIMES)
        want = np.array([q_mpmath(chi, t) for t in KERNEL_TIMES])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("chi", [0.5, 1.0, 1.5])
    def test_closed_form_scaled_and_huge_t(self, chi):
        # omega_c != 1, and t far past where (omega_c t)^2 overflows.
        times = np.array([0.3, 7.0, 1e100, 1e200])
        got = dephasing_Q(BathSpec(0.7, chi, 2.0), times)
        want = np.array([q_mpmath(chi, t, eta=0.7, wc=2.0) for t in times])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("bath, times", [
        *[pytest.param(BathSpec(1.0, chi, 1.0), KERNEL_TIMES, id=str(chi))
          for chi in KERNEL_CHIS],
        *[pytest.param(bath, QUAD_WARM_TIMES, id=name)
          for name, bath in QUAD_WARM.items()]])
    def test_closed_form_against_quadrature(self, bath, times):
        quad = np.array([_q_quadrature(bath, float(t)) for t in times])
        np.testing.assert_allclose(dephasing_Q(bath, times), quad,
                                   rtol=1e-10, atol=1e-10)

    def test_scalar_returns_float(self):
        for t in (2.0, 2, np.float64(2.0), np.array(2.0)):
            q = dephasing_Q(OHMIC, t)
            assert type(q) is float
            assert q == pytest.approx(q_closed(1.0, 2.0), rel=1e-15)

    @pytest.mark.parametrize("bath", [BathSpec(1.0, 0.5, 1.0), WARM],
                             ids=["zero-T", "finite-beta"])
    @pytest.mark.parametrize("shape", [(7,), (2, 3), (1, 1), (0,)])
    def test_array_keeps_shape(self, bath, shape):
        times = np.linspace(0.0, 6.0, int(np.prod(shape))).reshape(shape)
        q = dephasing_Q(bath, times)
        assert isinstance(q, np.ndarray) and q.shape == shape
        assert q.dtype == np.float64
        for t, v in zip(times.ravel(), q.ravel()):
            assert v == dephasing_Q(bath, float(t))

    def test_zero_time_is_zero(self):
        for chi in KERNEL_CHIS:
            bath = BathSpec(1.0, chi, 1.0)
            assert dephasing_Q(bath, 0.0) == 0.0
            assert dephasing_Q(bath, np.array([0.0, 1.0]))[0] == 0.0
        assert dephasing_Q(WARM, np.zeros((2, 2))).tolist() == [[0.0, 0.0]] * 2

    @pytest.mark.parametrize("bad", [-1e-300, -1.0, math.nan, math.inf,
                                     -math.inf])
    @pytest.mark.parametrize("bath", [OHMIC, WARM],
                             ids=["zero-T", "finite-beta"])
    def test_one_bad_element_raises(self, bath, bad):
        times = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        times[1, 1] = bad
        with pytest.raises(DomainError, match="dephasing_Q"):
            dephasing_Q(bath, times)
        with pytest.raises(DomainError):
            dephasing_Q(bath, bad)

    def test_finite_beta_array_equals_scalar_loop(self):
        # The thermal series is summed elementwise: an array call is the
        # scalar call element by element, bit for bit.
        times = np.array([0.0, 1e-3, 0.5, 3.0, 40.0, 700.0, 1e8])
        for bath in (WARM, BathSpec(1.0, 0.8, 1.0, beta=5.0),
                     BathSpec(1.0, 1.5, 2.0, beta=0.5),
                     BathSpec(1.0, 0.5, 1.0, beta=1.0)):
            for func in (dephasing_Q, bath_correlation):
                loop = [func(bath, float(t)) for t in times]
                assert func(bath, times).tolist() == loop


# The thermal series against its Hurwitz-zeta form: sub-Ohmic to
# super-Ohmic, both sides of the poles at chi = 1 and 2, hot to cold.
THERMAL_CHIS = [0.05, 0.5, 0.999, 1.0, 1.001, 1.5, 2.0, 3.0]
THERMAL_BATHS = [(1.0, 1.0, 1e-3), (0.7, 2.0, 1.0), (1.0, 0.5, 50.0),
                 (1.0, 1.0, 1e6)]  # (eta, omega_c, beta)
THERMAL_TIMES = np.geomspace(1e-8, 1e8, 9)


class TestThermalSeries:
    """Finite beta: the zero-temperature form summed over the thermal
    occupation series, eleven terms directly and the rest by
    Euler-Maclaurin."""

    @pytest.mark.parametrize("chi", THERMAL_CHIS)
    def test_q_against_mpmath(self, chi, thermal_q_mpmath):
        for eta, wc, beta in THERMAL_BATHS:
            bath = BathSpec(eta, chi, wc, beta=beta)
            want = [thermal_q_mpmath(bath, t) for t in THERMAL_TIMES]
            np.testing.assert_allclose(dephasing_Q(bath, THERMAL_TIMES), want,
                                       rtol=1e-13, atol=0.0,
                                       err_msg=f"beta={beta}")

    @pytest.mark.parametrize("chi", THERMAL_CHIS)
    def test_c_against_mpmath(self, chi, thermal_c_mpmath):
        for eta, wc, beta in THERMAL_BATHS:
            bath = BathSpec(eta, chi, wc, beta=beta)
            want = [thermal_c_mpmath(bath, t) for t in THERMAL_TIMES]
            c0 = thermal_c_mpmath(bath, 0.0)
            np.testing.assert_allclose(bath_correlation(bath, THERMAL_TIMES),
                                       want, rtol=0.0, atol=1e-14 * abs(c0),
                                       err_msg=f"beta={beta}")

    @pytest.mark.parametrize("chi, beta", [(0.5, 1.0), (0.5, 5.0),
                                           (0.5, 50.0), (0.3, 1.0)])
    def test_sub_ohmic_late_times(self, chi, beta, thermal_q_mpmath):
        # The quadrature reference stops converging here from t = 10 to 700
        # on; the closed form stays finite, increasing and exact.
        bath = BathSpec(1.0, chi, 1.0, beta=beta)
        times = np.linspace(0.0, 1e3, 401)
        q = dephasing_Q(bath, times)
        assert np.all(np.isfinite(q)) and np.all(np.diff(q) > 0.0)
        for t in (20.0, 40.0, 700.0, 1e3):
            assert dephasing_Q(bath, t) == pytest.approx(
                thermal_q_mpmath(bath, t), rel=1e-13)

    @pytest.mark.parametrize("chi", KERNEL_CHIS)
    def test_cold_limit(self, chi):
        # beta = 1e300 runs the whole series; every thermal term is far
        # below rounding, and beta ** 17 would overflow.
        cold, zero = BathSpec(0.7, chi, 2.0, beta=1e300), BathSpec(0.7, chi, 2.0)
        for func in (dephasing_Q, bath_correlation):
            np.testing.assert_allclose(func(cold, KERNEL_TIMES),
                                       func(zero, KERNEL_TIMES),
                                       rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("chi, beta, overflowing", [
        (171.0, math.inf, "C"), (180.0, math.inf, "QC"), (160.0, 1.0, "QC")])
    def test_gamma_overflow_is_domain_error(self, chi, beta, overflowing):
        # Gamma(chi - 1) for Q and Gamma(chi + 1) for C at beta = inf; the
        # Euler-Maclaurin orders reach Gamma(chi + 18) at finite beta.
        bath = BathSpec(1.0, chi, 1.0, beta=beta)
        for name, func in (("Q", dephasing_Q), ("C", bath_correlation)):
            if name in overflowing:
                with pytest.raises(DomainError, match=f"chi = {chi:g}"):
                    func(bath, [0.5, 1.0])
            else:
                assert np.all(np.isfinite(func(bath, [0.5, 1.0])))

    def test_asymptotic_gamma_overflow_is_domain_error(self):
        bath = BathSpec(1.0, 180.0)
        for regime in (AsymptoticRegime.ShortTime, AsymptoticRegime.SuperOhmic):
            with pytest.raises(DomainError, match="chi = 180"):
                asymptotic_Q(bath, 1.0, regime)


class TestBathCorrelation:
    @pytest.mark.parametrize("chi", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.0, 10.0, 100.0])
    def test_closed_form(self, chi, t):
        bath = BathSpec(1.0, chi, 1.0)
        assert bath_correlation(bath, t) == pytest.approx(
            c_closed(chi, t), abs=1e-9
        )

    def test_ohmic_landmarks(self):
        assert bath_correlation(OHMIC, 0.0) == pytest.approx(
            2.0 / math.pi, abs=1e-10
        )
        assert bath_correlation(OHMIC, 1.0) == pytest.approx(0.0, abs=1e-9)
        # |C| decays as (2/pi) t^-2: ~6.4e-5 at t = 100, below 1e-6 by t = 1e3
        assert abs(bath_correlation(OHMIC, 100.0)) < 1e-4
        assert abs(bath_correlation(OHMIC, 1000.0)) < 1e-6

    @pytest.mark.parametrize("bath, times", [
        *[pytest.param(BathSpec(0.8, chi, 1.3),
                       np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 13))),
                       id=str(chi)) for chi in (0.5, 1.0, 1.5, 3.0)],
        *[pytest.param(bath, QUAD_WARM_TIMES, id=name)
          for name, bath in QUAD_WARM.items()]])
    def test_closed_form_against_quadrature(self, bath, times):
        quad = np.array([_c_quadrature(bath, float(t)) for t in times])
        np.testing.assert_allclose(bath_correlation(bath, times), quad,
                                   rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("bath", [OHMIC, WARM],
                             ids=["zero-T", "finite-beta"])
    def test_array_contract(self, bath):
        times = np.array([[0.0, 0.5], [2.0, 30.0]])
        c = bath_correlation(bath, times)
        assert isinstance(c, np.ndarray) and c.shape == (2, 2)
        for t, v in zip(times.ravel(), c.ravel()):
            scalar = bath_correlation(bath, float(t))
            assert type(scalar) is float and v == scalar
        with pytest.raises(DomainError, match="bath_correlation"):
            bath_correlation(bath, np.array([1.0, math.nan]))

    def test_overflow_names_omega_c(self):
        # omega_c^2 alone overflows the prefactor, or eta omega_c^2 overflows
        # C; a C that fits comes out.
        with pytest.raises(DomainError, match="omega_c = 1e\\+200"):
            bath_correlation(BathSpec(1.0, 1.0, 1e200), [0.0, 1.0])
        with pytest.raises(DomainError, match="omega_c = 10 .*eta = 1e\\+308"):
            bath_correlation(BathSpec(1e308, 1.0, 10.0), 0.0)
        c = bath_correlation(BathSpec(1e-300, 1.0, 1e150), [0.0, 1.0])
        assert c[0] == pytest.approx(2.0 / math.pi, rel=1e-14)


# ---------------------------------------------------------------------------
# Asymptotic forms (literal constants)
# ---------------------------------------------------------------------------

class TestAsymptoticQ:
    def test_short_time(self):
        assert asymptotic_Q(OHMIC, 0.01, AsymptoticRegime.ShortTime) == \
            pytest.approx(5.0e-5, rel=1e-12)

    def test_ohmic(self):
        assert asymptotic_Q(OHMIC, 10.0, AsymptoticRegime.Ohmic) == \
            pytest.approx(0.5 * math.log(100.0), rel=1e-12)

    @pytest.mark.parametrize("omega_c, t, want", [
        # eta ln(omega_c t), where omega_c^2 t^2 is past the largest double
        # or below the smallest subnormal.
        (1e200, 1.0, 200.0 * math.log(10.0)),
        (1e-200, 1.0, -200.0 * math.log(10.0)),
        (1.0, 1e-170, -170.0 * math.log(10.0)),
    ])
    def test_ohmic_beyond_the_double_range(self, omega_c, t, want):
        bath = BathSpec(0.5, 1.0, omega_c)
        assert asymptotic_Q(bath, t, AsymptoticRegime.Ohmic) == \
            pytest.approx(0.5 * want, rel=1e-15)

    @pytest.mark.parametrize("bath, regime", [
        (BathSpec(1.0, 0.5, 1e300), AsymptoticRegime.ShortTime),
        (BathSpec(1e300, 0.5, 1e300), AsymptoticRegime.SubOhmic),
    ], ids=["short_time", "sub_ohmic"])
    def test_overflow_is_domain_error(self, bath, regime):
        with pytest.raises(DomainError, match="omega_c = 1e\\+300"):
            asymptotic_Q(bath, 1e10, regime)

    def test_sub_ohmic_constant(self):
        bath = BathSpec(1.0, 0.5, 1.0)
        c_half = -(2.0 / math.pi) * math.gamma(-0.5) * math.sin(math.pi / 4.0)
        assert asymptotic_Q(bath, 4.0, AsymptoticRegime.SubOhmic) == \
            pytest.approx(2.0 * c_half, rel=1e-12)

    def test_super_ohmic_plateau(self):
        bath = BathSpec(1.0, 1.5, 1.0)
        val = asymptotic_Q(bath, 1e3, AsymptoticRegime.SuperOhmic)
        assert val == pytest.approx(1.1283791670955126, rel=1e-12)

    def test_regime_mismatch(self):
        with pytest.raises(DomainError):
            asymptotic_Q(OHMIC, 1.0, AsymptoticRegime.SubOhmic)
        with pytest.raises(DomainError):
            asymptotic_Q(BathSpec(1.0, 0.5, 1.0), 1.0, AsymptoticRegime.Ohmic)
        with pytest.raises(DomainError):
            asymptotic_Q(OHMIC, 1.0, AsymptoticRegime.SuperOhmic)
        with pytest.raises(DomainError):
            asymptotic_Q(OHMIC, 0.0, AsymptoticRegime.ShortTime)
        with pytest.raises(ValidationError):
            asymptotic_Q(OHMIC, 1.0, "ohmic")


class TestRegimeBehavior:
    """dephasing_Q vs the leading-order forms, with their true prefactors."""

    @pytest.mark.parametrize("chi", [0.5, 1.0, 1.5])
    def test_short_time_gaussian(self, chi):
        # Q -> (2/pi) * (1/2) Gamma(chi+1) t^2: quadratic in t with the
        # 2/pi prefactor carried by the defining integral.
        bath = BathSpec(1.0, chi, 1.0)
        ratio = dephasing_Q(bath, 1e-2) / asymptotic_Q(
            bath, 1e-2, AsymptoticRegime.ShortTime
        )
        assert ratio == pytest.approx(2.0 / math.pi, abs=1e-3)
        slope = math.log(
            dephasing_Q(bath, 1e-2) / dephasing_Q(bath, 1e-3)
        ) / math.log(10.0)
        assert slope == pytest.approx(2.0, abs=0.01)

    def test_sub_ohmic_exponent(self):
        bath = BathSpec(1.0, 0.5, 1.0)
        slope = math.log(
            dephasing_Q(bath, 1e4) / dephasing_Q(bath, 1e3)
        ) / math.log(10.0)
        assert slope == pytest.approx(0.5, abs=0.025)

    @pytest.mark.parametrize("chi", [0.3, 0.5])
    def test_sub_ohmic_large_t_ratio(self, chi):
        # C_chi is the large-t coefficient itself: the ratio tends to 1 as
        # 1 - t^(chi-1) / sin(pi chi / 2), from the constant term of Q.
        bath = BathSpec(1.0, chi, 1.0)
        ratios = [dephasing_Q(bath, t)
                  / asymptotic_Q(bath, t, AsymptoticRegime.SubOhmic)
                  for t in (1e4, 1e8)]
        assert abs(ratios[1] - 1.0) < 2e-4
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)

    def test_ohmic_power_law(self):
        # |u| t^(2 eta / pi) is asymptotically constant.
        p = 2.0 / math.pi
        c1 = math.exp(-dephasing_Q(OHMIC, 1e2)) * 1e2**p
        c2 = math.exp(-dephasing_Q(OHMIC, 1e4)) * 1e4**p
        assert c2 / c1 == pytest.approx(1.0, abs=1e-3)

    def test_super_ohmic_plateau_approach(self):
        bath = BathSpec(1.0, 1.5, 1.0)
        plateau = math.exp(-asymptotic_Q(bath, 1.0, AsymptoticRegime.SuperOhmic))
        dev_1e3 = math.exp(-dephasing_Q(bath, 1e3)) / plateau - 1.0
        dev_1e4 = math.exp(-dephasing_Q(bath, 1e4)) / plateau - 1.0
        # Approach from above as (2/pi) Gamma(1/2) / sqrt(2 t); at t = 1e3
        # the residual is ~2.6%, at t = 1e4 it is ~0.8%.
        assert dev_1e3 == pytest.approx(0.02556, abs=0.002)
        assert 0.0 < dev_1e4 < 0.01
        assert abs(dev_1e3) < 0.05 and abs(dev_1e4) < 0.05


# ---------------------------------------------------------------------------
# Coherence series and comparison models
# ---------------------------------------------------------------------------

class TestExactCoherence:
    def test_values_and_meta(self):
        grid = np.array([0.0, 0.5, 1.0, 2.0])
        ser = exact_coherence(OHMIC, 0.7, grid)
        assert ser.meta == "exact"
        assert ser.values[0] == pytest.approx(1.0 + 0.0j, abs=1e-14)
        for t, u in zip(grid[1:], ser.values[1:]):
            want = np.exp(-1j * 0.7 * t - dephasing_Q(OHMIC, float(t)))
            assert u == pytest.approx(want, abs=1e-12)

    def test_ohmic_magnitude_closed_form(self):
        grid = np.array([0.0, 1.0, 5.0, 25.0])
        ser = exact_coherence(OHMIC, 0.0, grid)
        want = (1.0 + grid**2) ** (-1.0 / math.pi)
        assert np.max(np.abs(np.abs(ser.values) - want)) < 1e-10

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            exact_coherence(OHMIC, 0.0, np.array([1.0, 0.5]))
        with pytest.raises(ValidationError):
            exact_coherence(OHMIC, 0.0, np.array([-1.0, 0.5]))
        with pytest.raises(ValidationError):
            exact_coherence(OHMIC, 0.0, np.array([[0.0, 1.0]]))


class TestCoherenceSeries:
    def test_meta_tag_validation(self):
        with pytest.raises(ValidationError):
            CoherenceSeries(np.array([0.0]), np.array([1.0 + 0j]), "bogus")

    def test_envelope_invariant_for_exact(self):
        with pytest.raises(ValidationError):
            CoherenceSeries(np.array([0.0, 1.0]),
                            np.array([0.5 + 0j, 0.9 + 0j]), "exact")
        # Same data is fine under a tag without the envelope invariant.
        ser = CoherenceSeries(np.array([0.0, 1.0]),
                              np.array([0.5 + 0j, 0.9 + 0j]), "fractional")
        assert len(ser) == 2

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            CoherenceSeries(np.array([0.0, 1.0]), np.array([1.0 + 0j]), "exact")

    def test_csv_export(self, tmp_path):
        ser = markov_coherence(0.25, 1.0, np.array([0.0, 1.0, 2.0]))
        path = tmp_path / "series.csv"
        ser.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,re_u,im_u,abs_u"
        assert len(lines) == 4
        cells = lines[2].split(",")
        assert float(cells[0]) == 1.0
        assert float(cells[3]) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_caller_arrays_stay_writeable(self):
        g = np.array([0.0, 0.5, 1.0])
        v = np.array([1.0, 0.9, 0.8], dtype=complex)
        series = [exact_coherence(OHMIC, 0.3, g), markov_coherence(0.2, 0.3, g),
                  tcl_coherence(OHMIC, 0.3, g), CoherenceSeries(g, v, "exact")]
        assert g.flags.writeable and v.flags.writeable
        g[0], v[0] = 0.1, 0.5
        for ser in series:
            assert ser.times[0] == 0.0
            assert not ser.times.flags.writeable
            assert not ser.values.flags.writeable
        assert series[-1].values[0] == 1.0


class TestMarkovModel:
    def test_rate_recovery_from_pure_exponential(self):
        grid = np.linspace(0.0, 10.0, 41)
        synth = markov_coherence(0.1, 0.0, grid)
        assert markov_fit_rate(synth, (0.0, 10.0)) == pytest.approx(
            0.1, abs=1e-10
        )

    def test_formula_values(self):
        ser = markov_coherence(0.1, 0.0, np.array([0.0, 5.0]))
        assert ser.values[0] == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert ser.values[1] == pytest.approx(math.exp(-1.0), abs=1e-14)
        flip = markov_coherence(0.1, 1.0, np.array([0.0, math.pi]))
        assert flip.values[1].real < 0.0
        assert flip.values[1] == pytest.approx(
            -math.exp(-0.2 * math.pi), abs=1e-12
        )

    def test_log_magnitude_exactly_linear(self):
        ser = markov_coherence(0.3, 0.5, np.linspace(0.0, 20.0, 81))
        second = np.diff(np.log(np.abs(ser.values)), 2)
        assert np.max(np.abs(second)) < 1e-12

    def test_window_validation(self):
        grid = np.linspace(0.0, 10.0, 41)
        ser = markov_coherence(0.1, 0.0, grid)
        with pytest.raises(ValidationError):
            markov_fit_rate(ser, (5.0, 5.0))
        with pytest.raises(ValidationError):
            markov_fit_rate(ser, (9.0, 9.4))  # fewer than 8 samples
        with pytest.raises(ValidationError):
            markov_fit_rate(
                CoherenceSeries(grid, np.zeros(41, dtype=complex),
                                "fractional"),
                (0.0, 10.0),
            )
        with pytest.raises(DomainError):
            markov_coherence(0.0, 0.0, grid)

    def test_constant_rate_model_misses_exact(self):
        # Fit the exponential model on [2, 60] and confirm it deviates from
        # the exact coherence by more than 0.05 near both window edges.
        grid = np.arange(0.0, 200.0 + 1e-9, 0.25)
        exact = exact_coherence(OHMIC, 0.0, grid)
        gamma = markov_fit_rate(exact, (2.0, 60.0))
        model = markov_coherence(gamma, 0.0, grid)
        dev = np.abs(model.values - exact.values)
        outside = (grid <= 0.5) | (grid >= 60.0)
        assert gamma > 0.0
        assert dev[outside].max() > 0.05
        assert dev.max() > 0.05


def tcl_loop_reference(bath, epsilon, times):
    """Node-by-node time-local coherence, one scalar Q pair per Gauss node:
    the loop the batched :func:`tcl_coherence` must reproduce bit for bit."""
    nodes, weights = np.polynomial.legendre.leggauss(5)

    def gamma_rate(tau, step):
        if tau <= 0.0:
            return 0.0
        d = min(step, 1e-3) / 4.0
        if tau < d:
            d = tau
        return (dephasing_Q(bath, tau + d)
                - dephasing_Q(bath, tau - d)) / (4.0 * d)

    values = np.empty(times.size, dtype=complex)
    exponent, prev, start = 0.0, 0.0, 0
    if times[0] == 0.0:
        values[0] = 1.0
        start = 1
    for k in range(start, times.size):
        a, b = prev, float(times[k])
        n_sub = max(1, int(math.ceil((b - a) / 0.5)))
        width = (b - a) / n_sub
        for i in range(n_sub):
            half = 0.5 * width
            mid = a + i * width + half
            for x, w in zip(nodes, weights):
                exponent += half * w * 2.0 * gamma_rate(mid + half * x, b - a)
        values[k] = np.exp(1j * epsilon * times[k] - exponent)
        prev = b
    return values


class TestTclModel:
    @pytest.mark.parametrize("bath", [BathSpec(0.8, 0.5, 1.3), OHMIC,
                                      BathSpec(1.0, 1.5, 1.0), WARM],
                             ids=["sub", "ohmic", "super", "finite-beta"])
    @pytest.mark.parametrize("grid", [
        [0.0],
        [2.0, 4.0, 8.0],
        [0.0, 1e-4, 0.3, 2.7, 3.0],
        list(np.geomspace(0.01, 30.0, 17)),
    ], ids=["origin", "no-origin", "uneven", "log"])
    def test_matches_loop_reference(self, bath, grid):
        grid = np.array(grid)
        got = tcl_coherence(bath, 0.7, grid).values
        assert got.tolist() == tcl_loop_reference(bath, 0.7, grid).tolist()

    @pytest.mark.parametrize("chi", [0.5, 1.0, 1.5])
    def test_reproduces_exact(self, chi):
        bath = BathSpec(1.0, chi, 1.0)
        grid = np.arange(0.0, 100.0 + 1e-9, 0.5)
        tcl = tcl_coherence(bath, 0.0, grid)
        exact = exact_coherence(bath, 0.0, grid)
        assert tcl.meta == "tcl"
        assert np.max(np.abs(tcl.values - exact.values)) <= 1e-6

    def test_integrated_rate_recovers_q(self):
        grid = np.arange(0.0, 10.0 + 1e-9, 0.25)
        tcl = tcl_coherence(OHMIC, 0.0, grid)
        for t in (1.0, 10.0):
            k = int(round(t / 0.25))
            assert -math.log(abs(tcl.values[k])) == pytest.approx(
                dephasing_Q(OHMIC, t), abs=1e-6
            )

    def test_time_zero_and_modulus_with_phase(self):
        grid = np.linspace(0.0, 5.0, 11)
        tcl = tcl_coherence(OHMIC, 1.3, grid)
        exact = exact_coherence(OHMIC, 1.3, grid)
        assert tcl.values[0] == pytest.approx(1.0 + 0.0j, abs=1e-14)
        assert np.max(np.abs(np.abs(tcl.values) - np.abs(exact.values))) < 1e-6

    def test_grid_not_starting_at_zero(self):
        grid = np.array([2.0, 4.0, 8.0])
        tcl = tcl_coherence(OHMIC, 0.0, grid)
        exact = exact_coherence(OHMIC, 0.0, grid)
        assert np.max(np.abs(tcl.values - exact.values)) <= 1e-6
