"""Shared test references."""

import math

import pytest


@pytest.fixture(scope="session")
def ml_mpmath():
    """``E_a(z)`` from its Taylor series in mpmath, as a Python complex.

    The working precision grows with ``|z|^(1/a)``, the log of the largest
    term, so cancellation cannot reach the returned digits.  The Gamma
    argument is built as ``mpf(a) * k + 1``: with the float ``a * k`` each
    term carries a ~1e-16 relative error, which the largest terms turn into
    O(1) errors (E_0.95(-33.3) came out as 86.6).
    """
    mp = pytest.importorskip("mpmath")

    def series(a, z):
        r = abs(complex(z)) ** (1.0 / a)
        with mp.workdps(int(30 + r / math.log(10))):
            am, zz = mp.mpf(a), mp.mpc(complex(z))
            total, power, k = mp.mpc(0), mp.mpc(1), 0
            while True:
                term = power * mp.rgamma(am * k + 1)
                total += term
                # Terms peak near k = r / a and decay factorially after it.
                if k > r / a + 10 and abs(term) < mp.mpf(10) ** -25:
                    return complex(total)
                power *= zz
                k += 1

    return series


def _thermal_args(mp, bath, t):
    """mpf chi, beta, t, eta, omega_c; a0 = 1/omega_c; q0 = 1 + a0/beta and
    q1 = q0 - i t/beta, the Hurwitz shifts of the thermal sum."""
    chi, beta, t, eta, wc = (mp.mpf(v) for v in
                             (bath.chi, bath.beta, t, bath.eta, bath.omega_c))
    a0 = 1 / wc
    q0 = 1 + a0 / beta
    return chi, beta, t, eta, wc, a0, q0, q0 - mp.mpc(0, 1) * t / beta


@pytest.fixture(scope="session")
def thermal_q_mpmath():
    """Q(t) of a finite-beta ``BathSpec`` from the Hurwitz zeta, 40 digits.

    Summing coth(beta w / 2) = 1 + 2 sum_n e^{-n beta w} term by term, with
    s = 1 - chi, a0 = 1/omega_c, q0 = 1 + a0/beta:
        Q = (2/pi) eta omega_c^s Gamma(chi-1) [a0^s - Re (a0 - i t)^s
            + 2 beta^s Re(zeta(-s, q0) - zeta(-s, q0 - i t/beta))],
    with the limits at the poles of Gamma(chi-1): through
    zeta'(0, q) = lnGamma(q) - ln(2 pi)/2 at chi = 1, and through
    zeta(1 + e, q) = 1/e - digamma(q) at chi = 2.
    """
    mp = pytest.importorskip("mpmath")

    def q(bath, t):
        with mp.workdps(40):
            chi, beta, t, eta, wc, a0, q0, q1 = _thermal_args(mp, bath, t)
            if chi == 1:
                zero_t = mp.re(mp.log(mp.mpc(a0, -t))) - mp.log(a0)
                thermal = 2 * (mp.loggamma(q0) - mp.re(mp.loggamma(q1)))
                return float(2 / mp.pi * eta * (zero_t + thermal))
            s = 1 - chi
            zero_t = a0 ** s - mp.re(mp.power(mp.mpc(a0, -t), s))
            if chi == 2:
                thermal = 2 / beta * mp.re(mp.digamma(q1) - mp.digamma(q0))
                return float(2 / mp.pi * eta * wc ** s * (zero_t + thermal))
            thermal = 2 * beta ** s * mp.re(mp.zeta(-s, q0) - mp.zeta(-s, q1))
            return float(2 / mp.pi * eta * wc ** s * mp.gamma(chi - 1)
                         * (zero_t + thermal))

    return q


@pytest.fixture(scope="session")
def thermal_c_mpmath():
    """C(t) of a finite-beta ``BathSpec`` from the Hurwitz zeta, 40 digits:
        C = (2/pi) eta omega_c^(1-chi) Gamma(chi+1) [Re (a0 - i t)^-(chi+1)
            + 2 beta^-(chi+1) Re zeta(chi+1, q0 - i t/beta)],
    with a0 and q0 as for ``thermal_q_mpmath``.
    """
    mp = pytest.importorskip("mpmath")

    def c(bath, t):
        with mp.workdps(40):
            chi, beta, t, eta, wc, a0, q0, q1 = _thermal_args(mp, bath, t)
            p = chi + 1
            total = (mp.re(mp.power(mp.mpc(a0, -t), -p))
                     + 2 * beta ** -p * mp.re(mp.zeta(p, q1)))
            return float(2 / mp.pi * eta * wc ** (1 - chi) * mp.gamma(p)
                         * total)

    return c
