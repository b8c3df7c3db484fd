"""Tests for the fractional parameter-extraction pipeline.

Benchmark targets are built from the closed-form dephasing series (eta=1,
omega_c=1, beta=inf): Q(t) = (2/pi) eta Gamma(chi-1) [1 - Re(1-it)^(1-chi)]
for chi != 1.  Frozen fit values below were cross-checked against a
brute-force minimax search over the whole (alpha, lambda) family; the
early-time deviations recorded here are intrinsic to the model family
(the exact series starts Gaussian-flat, E_alpha(-lambda t^alpha) cannot),
not artifacts of the optimizer.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fracdyn import fitting
from fracdyn.errors import DomainError, NonConvergenceError, ValidationError
from fracdyn.fitting import (FitResult, FitWindow, bath_correlation_time,
                             default_fit_window, fit_fractional,
                             lambda_from_point, local_order_estimate,
                             rmse_objective)
from fracdyn.specfun import FractionalOrder, mittag_leffler
from fracdyn.spinboson import BathSpec, CoherenceSeries, exact_coherence

U_INF_CHI_15 = math.exp(-2.0 / math.pi * math.gamma(0.5))  # 0.32355726...


def ml_series(alpha, lam, times, u_inf=None):
    vals = np.array([mittag_leffler(alpha, -lam * t**alpha) if t > 0 else 1.0
                     for t in times])
    if u_inf is not None:
        vals = u_inf + (1.0 - u_inf) * vals
    return CoherenceSeries(times, vals.astype(complex), meta="fractional")


@pytest.fixture(scope="module")
def grid100():
    return np.arange(0.0, 100.25, 0.25)


@pytest.fixture(scope="module")
def exact_sub(grid100):
    return exact_coherence(BathSpec(1.0, 0.5), 0.0, grid100)


@pytest.fixture(scope="module")
def exact_ohmic(grid100):
    return exact_coherence(BathSpec(1.0, 1.0), 0.0, grid100)


@pytest.fixture(scope="module")
def exact_super(grid100):
    return exact_coherence(BathSpec(1.0, 1.5), 0.0, grid100)


@pytest.fixture(scope="module")
def fit_sub(exact_sub):
    return fit_fractional(exact_sub, FitWindow(2.0, 60.0))


class TestFitWindow:
    def test_fields(self):
        w = FitWindow(2.0, 60.0)
        assert w.t_start == 2.0 and w.t_end == 60.0

    def test_zero_start_rejected(self):
        with pytest.raises(ValidationError):
            FitWindow(0.0, 10.0)

    def test_reversed_rejected(self):
        with pytest.raises(ValidationError):
            FitWindow(5.0, 2.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            FitWindow(1.0, math.inf)
        with pytest.raises(ValidationError):
            FitWindow(math.nan, 10.0)


class TestFitResult:
    def test_float_alpha_coerced(self):
        r = FitResult(0.5, 1.0, FitWindow(1.0, 2.0), 0.0, 10, True)
        assert isinstance(r.alpha, FractionalOrder)
        assert r.alpha.alpha == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"lam": -1.0}, {"lam": 0.0}, {"rmse": -0.1},
        {"evaluations": 0}, {"u_inf": 1.0}, {"u_inf": -0.2},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        base = dict(alpha=0.5, lam=1.0, window=FitWindow(1.0, 2.0),
                    rmse=0.0, evaluations=10, converged=True)
        base.update(kwargs)
        with pytest.raises(ValidationError):
            FitResult(**base)

    def test_json_round_trip_with_plateau(self):
        r = FitResult(0.6, 0.8, FitWindow(2.0, 20.0), 1e-3, 42, True,
                      u_inf=0.3)
        doc = json.loads(r.to_json())
        assert list(doc) == ["alpha", "lambda", "u_inf", "window", "rmse",
                             "converged", "evaluations"]
        assert doc["alpha"] == 0.6
        assert doc["lambda"] == 0.8
        assert doc["u_inf"] == 0.3
        assert doc["window"] == {"t_start": 2.0, "t_end": 20.0}
        assert doc["converged"] is True
        assert doc["evaluations"] == 42

    def test_json_omits_absent_plateau(self):
        r = FitResult(0.6, 0.8, FitWindow(2.0, 20.0), 1e-3, 42, True)
        assert "u_inf" not in json.loads(r.to_json())

    def test_model_bounded_by_plateau(self):
        r = FitResult(0.7, 1.5, FitWindow(1.0, 2.0), 0.0, 10, True,
                      u_inf=0.3)
        vals = r.model(np.geomspace(1e-3, 1e3, 200))
        assert np.all(vals >= 0.3 - 1e-12)
        assert np.all(vals <= 1.0 + 1e-12)

    def test_rmse_self_consistent(self, fit_sub, exact_sub):
        again = rmse_objective(fit_sub.alpha, fit_sub.lam, exact_sub,
                               fit_sub.window, fit_sub.u_inf)
        assert abs(fit_sub.rmse - again) <= 1e-12


class TestRmseObjective:
    def test_zero_at_truth(self):
        tgt = ml_series(0.6, 0.8, np.arange(0.25, 20.25, 0.25))
        assert rmse_objective(0.6, 0.8, tgt, FitWindow(0.25, 20.0)) <= 1e-14

    def test_exponential_case(self):
        t = np.arange(0.25, 20.25, 0.25)
        tgt = CoherenceSeries(t, np.exp(-0.7 * t).astype(complex),
                              meta="fractional")
        assert rmse_objective(1.0, 0.7, tgt, FitWindow(0.25, 20.0)) <= 1e-12

    def test_plateau_model_zero_at_truth(self):
        tgt = ml_series(0.55, 0.9, np.arange(0.5, 20.5, 0.5), u_inf=0.25)
        obj = rmse_objective(0.55, 0.9, tgt, FitWindow(0.5, 20.0), u_inf=0.25)
        assert obj <= 1e-14

    def test_sub_ohmic_baseline(self, exact_sub):
        # Frozen baseline the optimizer must beat.
        obj = rmse_objective(0.5, 1.0, exact_sub, FitWindow(2.0, 60.0))
        assert obj == pytest.approx(0.098407, abs=5e-5)

    def test_phase_invariance(self, grid100, exact_sub):
        rotated = CoherenceSeries(
            grid100, exact_sub.values * np.exp(1j * 0.7 * grid100),
            meta="fractional")
        w = FitWindow(2.0, 60.0)
        assert (rmse_objective(0.6, 0.9, rotated, w)
                == rmse_objective(0.6, 0.9, exact_sub, w))

    def test_sparse_window_rejected(self, exact_sub):
        with pytest.raises(ValidationError):
            rmse_objective(0.6, 0.9, exact_sub, FitWindow(99.7, 100.0))

    @pytest.mark.parametrize("alpha,lam,u_inf", [
        (1.5, 1.0, None), (0.0, 1.0, None), (0.5, -1.0, None),
        (0.5, 0.0, None), (0.5, 1.0, 1.0),
    ])
    def test_invalid_parameters(self, exact_sub, alpha, lam, u_inf):
        with pytest.raises(DomainError):
            rmse_objective(alpha, lam, exact_sub, FitWindow(2.0, 60.0),
                           u_inf=u_inf)


class TestFitFractional:
    def test_self_fit_recovery(self):
        tgt = ml_series(0.45, 0.3, np.arange(0.25, 20.25, 0.25))
        r = fit_fractional(tgt, FitWindow(0.25, 20.0))
        assert abs(r.alpha.alpha - 0.45) <= 1e-3
        assert abs(r.lam / 0.3 - 1.0) <= 1e-3
        assert r.converged
        assert r.u_inf is None

    def test_self_fit_grid(self):
        times = np.arange(0.5, 20.5, 0.5)
        for a in (0.3, 0.45, 0.6, 0.75, 0.9):
            for lam in (0.1, 0.3, 1.0, 3.0, 10.0):
                r = fit_fractional(ml_series(a, lam, times),
                                   FitWindow(0.5, 20.0))
                assert abs(r.alpha.alpha - a) <= 1e-3, (a, lam)
                assert abs(r.lam / lam - 1.0) <= 1e-3, (a, lam)
                assert r.converged and r.evaluations <= 10_000

    def test_plateau_self_fit_recovery(self):
        tgt = ml_series(0.55, 0.9, np.arange(0.5, 20.5, 0.5), u_inf=0.25)
        r = fit_fractional(tgt, FitWindow(0.5, 20.0), plateau=0.25)
        assert abs(r.alpha.alpha - 0.55) <= 1e-3
        assert abs(r.lam / 0.9 - 1.0) <= 1e-3
        assert r.u_inf == 0.25

    def test_sub_ohmic_benchmark(self, fit_sub, exact_sub, grid100):
        # Windowed-RMSE optimum for the chi=0.5 series on [2, 60].
        assert fit_sub.converged
        assert fit_sub.alpha.alpha == pytest.approx(0.983587, abs=5e-3)
        assert fit_sub.lam == pytest.approx(0.340177, abs=5e-3)
        assert fit_sub.rmse < 4e-3
        assert 0.5 < fit_sub.alpha.alpha < 1.0
        dev = np.abs(fit_sub.model(grid100) - np.abs(exact_sub.values))
        # The early-time mismatch (max near t=0.75, where the exact series
        # is still Gaussian-flat) is irreducible within this model family:
        # the minimax-optimal member still deviates by 0.0675 on [0, 100].
        assert dev.max() == pytest.approx(0.0991, abs=5e-3)
        assert dev[grid100 >= 2.0].max() == pytest.approx(0.0311, abs=5e-3)

    def test_super_ohmic_anchored_vs_plain(self, exact_super, grid100):
        bath = BathSpec(1.0, 1.5)
        win = FitWindow(2.0, 20.0)
        anchored = fit_fractional(exact_super, win, plateau="auto", bath=bath)
        plain = fit_fractional(exact_super, win)
        assert anchored.u_inf == pytest.approx(U_INF_CHI_15, rel=1e-10)
        mags = np.abs(exact_super.values)
        dev_anc = np.abs(anchored.model(grid100) - mags).max()
        dev_plain = np.abs(plain.model(grid100) - mags).max()
        assert dev_plain > 0.05
        assert dev_anc < dev_plain
        assert dev_anc == pytest.approx(0.1428, abs=0.01)
        assert dev_plain == pytest.approx(0.2540, abs=0.02)

    def test_tail_median_plateau(self, exact_super):
        r = fit_fractional(exact_super, FitWindow(2.0, 20.0), plateau="auto")
        assert r.u_inf == pytest.approx(0.35129, abs=5e-3)

    def test_estimator_init_basin(self, fit_sub, exact_sub, grid100):
        est_series = exact_coherence(BathSpec(1.0, 0.5), 0.0,
                                     np.geomspace(5.0, 2000.0, 79))
        a0 = local_order_estimate(est_series)
        k = int(np.searchsorted(grid100, 10.0))
        lam0 = lambda_from_point(a0, grid100[k], abs(exact_sub.values[k]))
        r = fit_fractional(exact_sub, FitWindow(2.0, 60.0), init=(a0, lam0))
        assert r.rmse <= 1.1 * fit_sub.rmse
        assert r.evaluations < fit_sub.evaluations

    def test_evaluation_cap(self, exact_sub):
        r = fit_fractional(exact_sub, FitWindow(2.0, 60.0),
                           max_evaluations=100)
        assert not r.converged
        assert r.evaluations == 100
        assert 0.0 < r.alpha.alpha <= 1.0 and math.isfinite(r.rmse)

    def test_window_monotonicity_honest(self, exact_ohmic, grid100):
        r20 = fit_fractional(exact_ohmic, FitWindow(2.0, 20.0))
        r60 = fit_fractional(exact_ohmic, FitWindow(2.0, 60.0))
        assert r20.alpha.alpha == pytest.approx(0.7021, abs=5e-3)
        assert r60.alpha.alpha == pytest.approx(0.6646, abs=5e-3)
        mags = np.abs(exact_ohmic.values)
        d20 = np.abs(r20.model(grid100) - mags)
        d60 = np.abs(r60.model(grid100) - mags)
        # Widening the window improves the tail (the fitted order moves
        # toward the true decay exponent 2/pi) at the cost of the early
        # transient, so only the tail metric is monotone.
        tail = grid100 >= 20.0
        assert d60[tail].max() < d20[tail].max()
        assert d20[tail].max() == pytest.approx(0.0156, abs=3e-3)
        assert d60[tail].max() == pytest.approx(0.0058, abs=3e-3)
        assert d20.max() == pytest.approx(0.1412, abs=0.01)
        assert d60.max() == pytest.approx(0.1636, abs=0.01)

    def test_bad_init_rejected(self, exact_sub):
        with pytest.raises(ValidationError):
            fit_fractional(exact_sub, FitWindow(2.0, 60.0), init=(1.5, 1.0))
        with pytest.raises(ValidationError):
            fit_fractional(exact_sub, FitWindow(2.0, 60.0), init=(0.5, -1.0))

    def test_bad_cap_rejected(self, exact_sub):
        with pytest.raises(ValidationError):
            fit_fractional(exact_sub, FitWindow(2.0, 60.0),
                           max_evaluations=0)

    def test_zero_magnitude_rejected(self, grid100, exact_sub):
        vals = np.abs(exact_sub.values).copy()
        vals[10] = 0.0
        bad = CoherenceSeries(grid100, vals.astype(complex),
                              meta="fractional")
        with pytest.raises(ValidationError):
            fit_fractional(bad, FitWindow(2.0, 60.0), max_evaluations=5)

    def test_bad_plateau_value_rejected(self, exact_sub):
        with pytest.raises(ValidationError):
            fit_fractional(exact_sub, FitWindow(2.0, 60.0), plateau=1.0)


def per_cell_fit(target, window, u_inf, budget):
    """``fit_fractional``'s result for a budget that the grid nearly uses
    up, with the grid scanned one ``rmse_objective`` call per cell.

    Returns ``(alpha, lambda, evaluations, converged)``, never converged:
    a budget of 821-824 leaves at most 4 evaluations, too few for a
    simplex; 825 leaves 5, too few for it to converge, so the restart is
    never reached.
    """
    from scipy.optimize import minimize

    count, best, best_val = 0, None, math.inf
    for a in fitting._ALPHA_GRID:
        for ll in fitting._LOG_LAMBDA_GRID:
            if count >= budget:
                break
            log_lam = ll * math.log(10.0)
            val = rmse_objective(a, math.exp(log_lam), target, window, u_inf)
            count += 1
            if val < best_val:
                best, best_val = np.array([a, log_lam]), val

    if budget - count > 4:
        def objective(params):
            nonlocal count
            a, log_lam = float(params[0]), float(params[1])
            if not (0.0 < a <= 1.0) or abs(log_lam) > 700.0:
                return math.inf
            count += 1
            return rmse_objective(a, math.exp(log_lam), target, window,
                                  u_inf)

        res = minimize(objective, best, method="Nelder-Mead",
                       options={"xatol": fitting._SIMPLEX_TOL,
                                "fatol": 1e-15, "maxfev": budget - count})
        assert not res.success
        if res.fun <= best_val:
            best = np.asarray(res.x)
    return (float(min(max(best[0], 1e-12), 1.0)), math.exp(float(best[1])),
            count, False)


class TestBatchedGrid:
    @pytest.mark.parametrize("budget",
                             [1, 40, 41, 42, 819, 820, 821, 825])
    @pytest.mark.parametrize("case", ["plain", "anchored"])
    def test_budget_matches_per_cell_scan(self, case, budget, exact_sub,
                                          exact_super):
        if case == "plain":
            target, window, u_inf = exact_sub, FitWindow(2.0, 60.0), None
        else:
            target, window = exact_super, FitWindow(2.0, 20.0)
            u_inf = U_INF_CHI_15
        r = fit_fractional(target, window, plateau=u_inf,
                           max_evaluations=budget)
        got = (r.alpha.alpha, r.lam, r.evaluations, r.converged)
        assert got == per_cell_fit(target, window, u_inf, budget)

    def test_one_call_per_alpha_row(self, exact_super):
        # The super-Ohmic demo fit with the budget of the grid alone: one
        # bound call per alpha row over every 8th of the 73 samples, one
        # full call for the cell of least bound, one full call per row that
        # holds a candidate, then the final rmse_objective.  Never a call
        # per cell, and every cell counted.
        with mock.patch("fracdyn.fitting.mittag_leffler",
                        wraps=mittag_leffler) as spy:
            r = fit_fractional(exact_super, FitWindow(2.0, 20.0),
                               plateau="auto", bath=BathSpec(1.0, 1.5),
                               max_evaluations=820)
        assert r.evaluations == 820
        calls = [(c.args[0], c.args[1].shape) for c in spy.call_args_list]
        assert calls[:20] == [(a, (41, 10)) for a in fitting._ALPHA_GRID]
        assert calls[20][1] == (73,)
        rows, last = calls[21:-1], calls[-1]
        alphas = [a for a, _ in rows]
        assert 1 <= len(rows) <= 20 and alphas == sorted(set(alphas))
        assert all(shape[1:] == (73,) for _, shape in rows)
        assert sum(shape[0] for _, shape in rows) < 41
        assert last[1] == (73,)


def full_row_scan(times, mags, u_inf, budget):
    """The grid stage as a scan of every budgeted cell, one call per alpha
    row: ``((alpha, ln lambda), rmse, cells counted)``."""
    log_lams = fitting._LOG_LAMBDA_GRID * math.log(10.0)
    lams = np.array([math.exp(v) for v in log_lams])
    best, best_val, count = None, math.inf, 0
    for a in fitting._ALPHA_GRID:
        cells = min(lams.size, budget - count)
        if cells <= 0:
            break
        count += cells
        resid = fitting._model_values(a, lams[:cells, None], times,
                                      u_inf) - mags
        vals = np.sqrt(np.mean(resid * resid, axis=-1))
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best, best_val = (a, log_lams[j]), float(vals[j])
    return best, best_val, count


class TestBoundPrunedGrid:
    @seed(2028)
    @settings(max_examples=60, deadline=None, database=None)
    @given(alpha=st.one_of(st.sampled_from(list(fitting._ALPHA_GRID)),
                           st.floats(0.05, 1.0)),
           log_lam=st.one_of(
               st.sampled_from(list(fitting._LOG_LAMBDA_GRID[::4])),
               st.floats(-3.0, 2.0)),
           plateau=st.one_of(st.none(), st.floats(0.0, 0.6)),
           noise=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
           t_end=st.floats(3.0, 100.0),
           budget=st.one_of(st.just(820), st.integers(1, 820)))
    def test_same_cell_and_bits_as_a_full_scan(self, alpha, log_lam, plateau,
                                               noise, t_end, budget):
        times = np.arange(0.0, 100.25, 0.25)
        lam = 10.0 ** log_lam
        u = fitting._model_values(alpha, lam, times, plateau)
        u = u + noise * np.random.default_rng(7).standard_normal(times.size)
        target = CoherenceSeries(times, u.astype(complex), meta="fractional")
        t, mags = fitting._window_samples(target, FitWindow(2.0, t_end))
        best, best_val, count = fitting._grid_start(t, mags, plateau, budget)
        want, want_val, want_count = full_row_scan(t, mags, plateau, budget)
        assert (best[0], best[1]) == want
        assert best_val == want_val
        assert count == want_count


class TestLocalOrderEstimate:
    def test_synthetic_power(self):
        t = np.geomspace(0.1, 10.0, 120)
        s = CoherenceSeries(t, np.exp(-t**0.6).astype(complex),
                            meta="fractional")
        assert local_order_estimate(s) == pytest.approx(0.6, abs=0.01)

    def test_synthetic_with_plateau(self):
        t = np.geomspace(0.1, 10.0, 120)
        u = 0.3 + 0.7 * np.exp(-t**0.6)
        s = CoherenceSeries(t, u.astype(complex), meta="fractional")
        assert local_order_estimate(s, plateau=0.3) == pytest.approx(0.6,
                                                                     abs=0.01)

    def test_sub_ohmic_long_series(self):
        s = exact_coherence(BathSpec(1.0, 0.5), 0.0,
                            np.geomspace(5.0, 2000.0, 79))
        est = local_order_estimate(s)
        assert est == pytest.approx(0.5761, abs=0.02)
        assert abs(est - 0.5) < 0.1

    def test_sub_ohmic_short_series(self):
        # Over [5, 500] the local slope has not yet settled to the kernel
        # exponent 0.5; the run median sits near 0.61.
        s = exact_coherence(BathSpec(1.0, 0.5), 0.0,
                            np.geomspace(5.0, 500.0, 61))
        assert local_order_estimate(s) == pytest.approx(0.611, abs=0.02)

    def test_constant_series_rejected(self):
        t = np.geomspace(0.5, 50.0, 40)
        s = CoherenceSeries(t, np.ones(40, dtype=complex), meta="fractional")
        with pytest.raises(ValidationError):
            local_order_estimate(s)

    def test_too_few_samples_rejected(self):
        t = np.array([1.0, 2.0, 3.0])
        s = CoherenceSeries(t, np.exp(-t).astype(complex), meta="fractional")
        with pytest.raises(ValidationError):
            local_order_estimate(s)

    def test_no_stable_run(self):
        t = np.geomspace(0.5, 50.0, 40)
        vals = np.exp(-t**0.6) * (1.0 + 0.25 * np.cos(7.0 * np.log(t)))
        s = CoherenceSeries(t, vals.astype(complex), meta="fractional")
        with pytest.raises(NonConvergenceError):
            local_order_estimate(s)

    def test_bad_plateau_rejected(self):
        t = np.geomspace(0.1, 10.0, 20)
        s = CoherenceSeries(t, np.exp(-t).astype(complex), meta="fractional")
        with pytest.raises(DomainError):
            local_order_estimate(s, plateau=1.0)


class TestLambdaFromPoint:
    def test_exponential_inversion(self):
        assert lambda_from_point(1.0, 1.0, math.exp(-2.0)) == pytest.approx(
            2.0, abs=1e-9)

    def test_half_order_landmark(self):
        # E_{1/2}(-1) = e * erfc(1) = 0.42758358...
        assert lambda_from_point(0.5, 1.0, 0.42758358) == pytest.approx(
            1.0, abs=1e-6)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = rng.uniform(0.2, 1.0)
            lam = 10.0 ** rng.uniform(-2, 2)
            t = 10.0 ** rng.uniform(-1, 1)
            u = mittag_leffler(a, -lam * t**a)
            if not (1e-12 < u < 1.0 - 1e-12):
                continue
            assert abs(lambda_from_point(a, t, u) / lam - 1.0) <= 1e-8

    def test_plateau_round_trip(self):
        u = 0.3 + 0.7 * mittag_leffler(0.6, -1.3 * 2.0**0.6)
        lam = lambda_from_point(0.6, 2.0, u, u_inf=0.3)
        assert lam == pytest.approx(1.3, abs=1e-8)

    def test_newton_steps(self):
        # Bisecting [-40, 40] down to 1e-13 would take about 50 calls.
        for a, t, u in [(0.7, 3.0, 0.2), (0.05, 0.5, 0.6), (0.95, 40.0, 1e-5),
                        (0.3, 2.0, 0.9999), (1.0, 1.0, 0.5)]:
            with mock.patch("fracdyn.fitting.mittag_leffler",
                            wraps=mittag_leffler) as spy:
                lam = lambda_from_point(a, t, u)
            assert spy.call_count <= 16, (a, t, u)
            assert abs(mittag_leffler(a, -lam * t**a) - u) <= 1e-10

    def test_residual_tolerance(self):
        lam = lambda_from_point(0.7, 3.0, 0.2)
        assert abs(mittag_leffler(0.7, -lam * 3.0**0.7) - 0.2) <= 1e-10

    @pytest.mark.parametrize("kwargs", [
        {"u_star": 1.2}, {"u_star": 0.0}, {"u_star": -0.5},
        {"u_star": 0.2, "u_inf": 0.3},   # below the plateau
        {"u_star": 0.5, "t_star": 0.0},
        {"u_star": 0.5, "alpha": 1.5},
    ])
    def test_domain_errors(self, kwargs):
        args = dict(alpha=0.6, t_star=1.0, u_star=0.5)
        args.update(kwargs)
        with pytest.raises(DomainError):
            lambda_from_point(args["alpha"], args["t_star"], args["u_star"],
                              u_inf=args.get("u_inf"))


class TestBathCorrelationTime:
    def test_ohmic_value(self):
        # Root of |1 - t^2| / (1 + t^2)^2 = e^{-1}.
        tau = bath_correlation_time(BathSpec(1.0, 1.0))
        assert tau == pytest.approx(0.582852, abs=1e-4)

    def test_ohmic_closed_form_root(self):
        # At beta = inf, chi = 1: |C(t)/C(0)| = |1 - t^2| / (1 + t^2)^2, so
        # s = t^2 solves s^2 + (2 + e) s + 1 - e = 0 below the zero at t = 1.
        b = 2.0 + math.e
        root = math.sqrt(0.5 * (math.sqrt(b * b - 4.0 * (1.0 - math.e)) - b))
        assert (1.0 - root**2) / (1.0 + root**2) ** 2 == \
            pytest.approx(math.exp(-1.0), rel=1e-14)
        # The bisection stops at a bracket of width 1e-6 and returns its
        # midpoint.
        tau = bath_correlation_time(BathSpec(1.0, 1.0))
        assert abs(tau - root) <= 0.5e-6

    def test_cutoff_scaling(self):
        tau1 = bath_correlation_time(BathSpec(1.0, 1.0))
        tau2 = bath_correlation_time(BathSpec(1.0, 1.0, omega_c=2.0))
        assert tau2 / tau1 == pytest.approx(0.5, abs=1e-3)

    def test_sub_ohmic_value(self):
        tau = bath_correlation_time(BathSpec(1.0, 0.5))
        assert tau == pytest.approx(0.797371, abs=1e-4)

    def test_no_crossing(self):
        with mock.patch("fracdyn.fitting.bath_correlation",
                        lambda bath, t: 1.0):
            with pytest.raises(NonConvergenceError):
                bath_correlation_time(BathSpec(1.0, 1.0))

    def test_zero_c0(self):
        with mock.patch("fracdyn.fitting.bath_correlation",
                        lambda bath, t: 0.0):
            with pytest.raises(DomainError):
                bath_correlation_time(BathSpec(1.0, 1.0))


class TestDefaultFitWindow:
    def test_default_factor(self):
        w = default_fit_window(BathSpec(1.0, 1.0))
        assert w.t_start == pytest.approx(1.165704, abs=1e-3)
        assert w.t_end == pytest.approx(11.657036, abs=1e-2)

    @pytest.mark.parametrize("factor", [20.0, 60.0])
    def test_window_is_two_to_factor_tau(self, factor):
        bath = BathSpec(1.0, 1.0)
        tau = bath_correlation_time(bath)
        w = default_fit_window(bath, end_factor=factor)
        assert (w.t_start, w.t_end) == (2.0 * tau, factor * tau)

    def test_wide_factor(self):
        w = default_fit_window(BathSpec(1.0, 1.0), end_factor=60.0)
        assert w.t_end == pytest.approx(34.97, abs=0.05)

    # (chi, t_start / 2) from the quadrature-based C(t) this rule used before
    # C(t) at beta = inf became its closed form; the bisection stops at a
    # bracket of width 1e-6.
    @pytest.mark.parametrize("chi, tau_b", [(0.5, 0.7973705291748049),
                                            (1.0, 0.5828517913818357),
                                            (1.5, 0.4624713897705077)])
    def test_window_pinned_across_chi(self, chi, tau_b):
        w = default_fit_window(BathSpec(1.0, chi))
        assert w.t_start / 2.0 == pytest.approx(tau_b, abs=1e-6)
        assert w.t_end / 20.0 == pytest.approx(tau_b, abs=1e-6)

    @pytest.mark.parametrize("factor", [10.0, 19.9, 61.0])
    def test_factor_out_of_range(self, factor):
        with pytest.raises(ValidationError):
            default_fit_window(BathSpec(1.0, 1.0), end_factor=factor)
