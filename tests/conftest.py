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
