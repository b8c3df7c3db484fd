"""Tests for Bochner-Phillips subordination: density, sampler, quadrature, MC."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from fracdyn import lindblad, subordination
from fracdyn.errors import (
    AccuracyError,
    DomainError,
    NumericalInstabilityError,
    ValidationError,
)
from fracdyn.fracsolve import fam_solve, ml_propagate
from fracdyn.lindblad import (
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    GKSLGenerator,
    Superoperator,
    build_superoperator,
    cptp_diagnostics,
    dephasing_qubit,
    plus_state,
    semigroup_apply,
    vec,
)
from fracdyn.specfun import (
    FractionalOrder,
    _mw_integral_batch,
    _mw_series_batch,
    m_wright,
    mittag_leffler,
)
from fracdyn.subordination import (
    OperationalClock,
    TrajectoryEstimate,
    divisibility_defect,
    levy_density,
    sample_clock,
    subordinated_propagate,
    trajectory_estimate,
)

F = FractionalOrder


# ---------------------------------------------------------------------------
# Operational clock and density
# ---------------------------------------------------------------------------

class TestOperationalClock:
    def test_validation(self):
        with pytest.raises(DomainError):
            OperationalClock(F(1.0), 1.0)
        with pytest.raises(DomainError):
            OperationalClock(F(0.5), 0.0)
        with pytest.raises(DomainError):
            OperationalClock(F(0.5), -1.0)
        c = OperationalClock(F(0.5), 2.0)
        assert c.t == 2.0


class TestLevyDensity:
    def test_value_at_origin(self):
        c = OperationalClock(F(0.5), 1.0)
        assert levy_density(c, 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-12
        )

    def test_closed_form_half(self):
        # f_{1/2}(u, t) = exp(-u^2/(4t)) / sqrt(pi t)
        c = OperationalClock(F(0.5), 4.0)
        assert levy_density(c, 2.0) == pytest.approx(
            math.exp(-0.25) / math.sqrt(4.0 * math.pi), rel=1e-12
        )
        c1 = OperationalClock(F(0.5), 1.0)
        for u in (0.1, 1.0, 3.0, 6.0):
            assert levy_density(c1, u) == pytest.approx(
                math.exp(-u * u / 4.0) / math.sqrt(math.pi), rel=1e-7
            )

    def test_array_input_and_nonnegativity(self):
        c = OperationalClock(F(0.3), 2.0)
        u = np.linspace(0.0, 10.0, 41)
        f = levy_density(c, u)
        assert f.shape == u.shape
        assert np.all(f >= 0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
    def test_normalization(self, alpha, t):
        c = OperationalClock(F(alpha), t)
        total, _ = quad(lambda x: levy_density(c, x), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_negative_u_rejected(self):
        c = OperationalClock(F(0.5), 1.0)
        with pytest.raises(DomainError):
            levy_density(c, -0.1)

    # Upper end of z = u t^(-alpha): past the series/integral switch of
    # M_alpha, below the point where the density underflows.
    @pytest.mark.parametrize("alpha,z_max", [(0.3, 20.0), (0.5, 15.0),
                                             (0.8, 5.0)])
    def test_batch_matches_pointwise_m_wright(self, alpha, z_max):
        t = 2.0
        c = OperationalClock(F(alpha), t)
        scale = t ** (-alpha)
        # 301 nodes: two full batches of 128 and a short one.
        u = np.linspace(0.0, z_max, 301) / scale
        _, series = _mw_series_batch(alpha, u * scale)
        assert series.any() and not series.all()
        ref = np.array([scale * m_wright(alpha, x * scale) for x in u])
        assert np.all(ref > 0.0)

        f = levy_density(c, u)
        assert f.shape == u.shape
        np.testing.assert_allclose(f, ref, rtol=1e-14, atol=0.0)
        f2 = levy_density(c, u.reshape(7, 43))
        assert f2.shape == (7, 43)
        np.testing.assert_allclose(f2.ravel(), ref, rtol=1e-14, atol=0.0)
        for k in (0, 150, 300):
            for point in (float(u[k]), np.array(u[k])):
                got = levy_density(c, point)
                assert isinstance(got, float)
                assert got == pytest.approx(ref[k], rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# Stable-clock sampling
# ---------------------------------------------------------------------------

class TestSampleClock:
    def test_first_moment(self):
        # E[U(t)] = t^alpha / Gamma(1 + alpha)
        c = OperationalClock(F(0.5), 1.0)
        u = sample_clock(c, np.random.default_rng(12345), size=10**6)
        mean = u.mean()
        se = u.std(ddof=1) / math.sqrt(len(u))
        assert abs(mean - 1.0 / math.gamma(1.5)) <= 3.0 * se

    def test_laplace_transform_identity(self):
        # E[exp(-U)] = E_alpha(-t^alpha)
        c = OperationalClock(F(0.5), 1.0)
        u = sample_clock(c, np.random.default_rng(77), size=4 * 10**5)
        vals = np.exp(-u)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - mittag_leffler(0.5, -1.0)) <= 4.0 * se

    def test_cdf_against_quadrature(self):
        c = OperationalClock(F(0.5), 1.0)
        u = sample_clock(c, np.random.default_rng(2024), size=10**5)
        cdf_emp = float(np.mean(u <= 1.0))
        cdf_ref, _ = quad(lambda x: levy_density(c, x), 0.0, 1.0)
        assert abs(cdf_emp - cdf_ref) < 0.005

    def test_alpha_near_one_degenerates(self):
        c = OperationalClock(F(0.99), 1.0)
        u = sample_clock(c, np.random.default_rng(7), size=10**5)
        assert u.mean() == pytest.approx(1.0, rel=0.05)

    def test_scalar_draw_reproducible(self):
        c = OperationalClock(F(0.5), 1.0)
        r1 = sample_clock(c, np.random.default_rng(11))
        r2 = sample_clock(c, np.random.default_rng(11))
        assert isinstance(r1, float) and r1 > 0.0
        assert r1 == r2

    def test_size_validation(self):
        c = OperationalClock(F(0.5), 1.0)
        with pytest.raises(ValidationError):
            sample_clock(c, np.random.default_rng(0), size=0)

    @pytest.mark.filterwarnings("error")
    def test_small_alpha_draws_stay_positive(self):
        # At alpha = 0.02, sin(V)^(1/alpha) underflows for V near pi; one of
        # these draws (V = 3.14143, W = 1.97e-4) is u = 5.86e-7, not 0.
        a = 0.02
        u = sample_clock(OperationalClock(F(a), 1.0),
                         np.random.default_rng(3), size=10**6)
        assert np.all(u > 0.0)
        se = u.std(ddof=1) / math.sqrt(u.size)
        assert abs(u.mean() - 1.0 / math.gamma(1.0 + a)) <= 5.0 * se


# ---------------------------------------------------------------------------
# Deterministic subordination quadrature
# ---------------------------------------------------------------------------

class TestSubordinatedPropagate:
    def test_dephasing_benchmark(self):
        gen = dephasing_qubit(0.0, 0.5)
        out = subordinated_propagate(gen, 0.5, 1.0, plus_state())
        ratio = out.entries[1, 0].real / 0.5
        assert ratio == pytest.approx(mittag_leffler(0.5, -1.0), abs=1e-6)
        assert mittag_leffler(0.5, -1.0) == pytest.approx(0.42758358, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_subordination_identity_grid(self, alpha):
        # int f_alpha(u,t) e^{-lam u} du = E_alpha(-lam t^alpha)
        worst = 0.0
        for lam in (0.5, 1.0, 2.0):
            gen = dephasing_qubit(0.0, lam / 2.0)
            for t in (0.5, 1.0, 5.0):
                out = subordinated_propagate(gen, alpha, t, plus_state())
                got = out.entries[1, 0].real / 0.5
                worst = max(worst, abs(got - mittag_leffler(alpha, -lam * t**alpha)))
        assert worst < 1e-6

    def test_time_zero_is_identity(self):
        gen = dephasing_qubit(0.0, 0.5)
        rho0 = plus_state()
        assert subordinated_propagate(gen, 0.5, 0.0, rho0) is rho0

    def test_liouville_mixture_dephases(self):
        # Convex mixture of unitaries: |rho_01| can only shrink.
        gen = GKSLGenerator(0.5 * PAULI_Z, ())
        out = subordinated_propagate(gen, 0.5, 1.0, plus_state())
        assert abs(out.entries[0, 1]) <= 0.5 + 1e-12
        assert abs(out.entries[0, 1]) < 0.45  # strictly mixed at t = 1

    def test_alpha_one_matches_semigroup(self):
        gen = dephasing_qubit(0.3, 0.4)
        out = subordinated_propagate(gen, 1.0, 0.8, plus_state())
        ref = semigroup_apply(build_superoperator(gen), 0.8, plus_state())
        assert np.max(np.abs(out.entries - ref.entries)) < 1e-12

    def test_three_route_agreement(self):
        gen = dephasing_qubit(0.0, 0.5)
        r_sub = subordinated_propagate(gen, 0.5, 1.0, plus_state())
        r_ml = ml_propagate(gen, 0.5, 1.0, plus_state())
        tr = fam_solve(gen, 0.5, 0.0025, 400, plus_state())
        assert np.max(np.abs(r_sub.entries - r_ml.entries)) < 1e-9
        assert np.max(np.abs(r_sub.entries - tr.states[-1].entries)) < 1e-5

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_cptp_of_implied_map(self, t):
        # Reconstruct the implied map from a spanning set of inputs, then
        # run the CPTP diagnostics on it directly.
        gen = dephasing_qubit(0.0, 0.5)
        zero = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        one = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        plus = plus_state()
        plus_i = DensityMatrix(
            0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]], dtype=complex)
        )
        ins = [zero, one, plus, plus_i]
        s_mat = np.column_stack([vec(r.entries) for r in ins])
        out_mat = np.column_stack([
            vec(subordinated_propagate(gen, 0.5, t, r).entries) for r in ins
        ])
        phi = out_mat @ np.linalg.inv(s_mat)
        trace_defect, min_choi = cptp_diagnostics(Superoperator(2, phi))
        assert trace_defect < 1e-7
        assert min_choi >= -1e-8

    def test_quadrature_failure_raises(self, monkeypatch):
        gen = dephasing_qubit(0.0, 0.5)
        monkeypatch.setattr(subordination, "_AGREE_TOL", 1e-30)
        monkeypatch.setattr(subordination, "_MAX_DOUBLINGS", 1)
        with pytest.raises(AccuracyError):
            subordinated_propagate(gen, 0.5, 1.0, plus_state())

    def test_non_hermitian_result_raises(self, monkeypatch):
        # A map that leaks rho_00 into rho_01 only: the result is off
        # Hermitian by 5e-7 while its trace and spectrum stay valid.
        exact = subordination._subordinated_matrix

        def skewed(*args):
            phi = exact(*args).copy()
            phi[1, 0] += 1e-6
            return phi

        monkeypatch.setattr(subordination, "_subordinated_matrix", skewed)
        with pytest.raises(NumericalInstabilityError, match="defect 5e-07"):
            subordinated_propagate(dephasing_qubit(0.0, 0.5), 0.5, 1.0,
                                   plus_state())

    def test_validation(self):
        gen = dephasing_qubit(0.0, 0.5)
        with pytest.raises(DomainError):
            subordinated_propagate(gen, 0.5, -1.0, plus_state())
        with pytest.raises(ValidationError):
            subordinated_propagate(gen, 0.5, 1.0, 0.5)

    def test_superoperator_gives_same_bits(self):
        gen = dephasing_qubit(2.0, 0.5)
        superop = build_superoperator(gen)
        for alpha in (0.7, 1.0):
            out = subordinated_propagate(gen, alpha, 1.5, plus_state())
            same = subordinated_propagate(superop, alpha, 1.5, plus_state())
            assert np.array_equal(out.entries, same.entries)

    def test_scalar_rate_rejected(self):
        with pytest.raises(ValidationError, match="GKSLGenerator"):
            subordinated_propagate(1.0, 0.5, 1.0, plus_state())


# Qubit flows for the matrix-exponential fallbacks: pure dephasing with a
# Hamiltonian, and a driven qubit damped by sigma_- (non-normal M).
FALLBACK_FLOWS = {
    "dephasing": dephasing_qubit(2.0, 0.5),
    "damped": GKSLGenerator(0.7 * PAULI_X + 0.3 * PAULI_Z,
                            ((np.array([[0.0, 1.0], [0.0, 0.0]]), 0.6),)),
}


class TestExpmFallback:
    """The routes taken when lindblad._eigenbasis refuses the eigenbasis."""

    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    @pytest.mark.parametrize("flow", sorted(FALLBACK_FLOWS))
    def test_fallbacks_match_spectral_route(self, monkeypatch, flow, alpha):
        gen = FALLBACK_FLOWS[flow]
        args = (gen, alpha, 1.0, plus_state())
        spectral = subordinated_propagate(*args)
        est = trajectory_estimate(*args, PAULI_X, 400, 3)
        monkeypatch.setattr(subordination, "_eigenbasis", lambda M: None)
        fallback = subordinated_propagate(*args)
        est_fallback = trajectory_estimate(*args, PAULI_X, 400, 3)
        assert np.max(np.abs(fallback.entries - spectral.entries)) <= 1e-12
        assert abs(est_fallback.mean - est.mean) <= 1e-12
        assert abs(est_fallback.stderr - est.stderr) <= 1e-12

    @pytest.mark.parametrize("t", [1.0, 5.0])
    @pytest.mark.parametrize("alpha", [0.7, 0.9])
    def test_exceptional_point_matches_solver(self, alpha, t):
        # Driven amplitude damping at Omega = gamma/4: the eigenbasis is
        # refused (condition number 1.4e8) and the quadrature runs on expm.
        gen = GKSLGenerator((1.0 / 8.0) * PAULI_X,
                            ((np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0),))
        rho0 = DensityMatrix(np.array([[0.0, 0.0], [0.0, 1.0]], complex))
        assert lindblad._eigenbasis(build_superoperator(gen).matrix) is None
        out = subordinated_propagate(gen, alpha, t, rho0)
        ref = fam_solve(gen, alpha, t / 4000, 4000, rho0).final()
        assert np.max(np.abs(out.entries - ref.entries)) <= 1e-7


def _u_space_reference(M, a, t, spectral):
    """Phi(t) integrated in u itself: Gauss-Legendre panels on
    [0, t^a x0] weighted by levy_density at t, refined as the route is."""
    clock = OperationalClock(F(a), t)
    u_max = t**a * subordination._tail_cutoff(a)
    if spectral:
        evals, V = np.linalg.eig(M)
        Vinv = np.linalg.inv(V)
    prev, n_panels = None, subordination._START_PANELS
    for _ in range(subordination._MAX_DOUBLINGS + 1):
        u, wts = subordination._gl_panels(
            n_panels, subordination._NODES_PER_PANEL, u_max)
        coeff = wts * levy_density(clock, u)
        if spectral:
            cur = (V * (coeff @ np.exp(np.outer(u, evals)))[None, :]) @ Vinv
        else:
            cur = sum(ck * expm(uk * M) for uk, ck in zip(u, coeff))
        if (prev is not None
                and np.max(np.abs(cur - prev)) <= subordination._AGREE_TOL):
            return cur
        prev = cur
        n_panels *= 2
    raise AssertionError("u-space reference did not converge")


def _smooth_m_wright(a, z):
    """M_alpha from the Zolotarev integral alone: smooth in z to rounding."""
    return _mw_integral_batch(a, np.asarray(z, dtype=float))


class TestOperationalTimeRule:
    """One M-Wright rule per (alpha, level) in x = u t^(-alpha), shared by
    every t."""

    @pytest.mark.parametrize("route", ["spectral", "expm"])
    @pytest.mark.parametrize("flow", sorted(FALLBACK_FLOWS))
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 0.95])
    def test_matches_u_space_reference(self, monkeypatch, alpha, flow, route):
        M = build_superoperator(FALLBACK_FLOWS[flow]).matrix
        spectral = route == "spectral"
        if not spectral:
            monkeypatch.setattr(subordination, "_eigenbasis", lambda M: None)

        def worst():
            return max(
                np.max(np.abs(
                    subordination._subordinated_matrix(M, alpha, t)
                    - _u_space_reference(M, alpha, t, spectral)))
                for t in (1e-3, 0.5, 5.0, 50.0))

        # The two rules place their nodes an ulp apart, and the M-Wright
        # series moves by up to 2.4e-10 when its argument moves by one ulp
        # (alpha = 0.95, z = 1.35): the maps differ by up to 3e-12.
        assert worst() <= 1e-11
        # On a density that is smooth to rounding, only the rule is left.
        monkeypatch.setattr(subordination, "m_wright", _smooth_m_wright)
        subordination._clock_rule.cache_clear()
        assert worst() <= 1e-14

    def test_one_rule_per_level_for_every_t(self, monkeypatch):
        sizes = []

        def counting(a, z):
            sizes.append(np.size(z))
            return m_wright(a, z)

        monkeypatch.setattr(subordination, "m_wright", counting)
        gen = dephasing_qubit(0.0, 1.0)
        times = np.linspace(0.5, 5.0, 10)
        for t in times:
            subordinated_propagate(gen, 0.5, t, plus_state())
        # Two levels, 8 and 16 panels of 16 nodes, for all ten times.
        assert sizes == [128, 256]
        sizes.clear()
        for t in times + 0.25:
            subordinated_propagate(gen, 0.5, t, plus_state())
        assert sizes == []

    def test_threads_build_each_rule_once_and_agree(self):
        # More workers than cores, switching often: each rule is still
        # built once, and a cold cache filled at once by every thread gives
        # the bits a warm cache gives.
        gen = dephasing_qubit(0.0, 1.0)
        times = np.linspace(0.5, 5.0, 8)

        def row(t):
            return subordinated_propagate(gen, 0.5, t, plus_state()).entries

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                cold = list(pool.map(row, times, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert subordination._clock_rule.cache_info().misses == 2
        for got, t in zip(cold, times):
            assert np.array_equal(got, row(t))

    def test_rule_arrays_are_read_only(self):
        n_panels = subordination._START_PANELS
        n_nodes = n_panels * subordination._NODES_PER_PANEL
        x, c = subordination._clock_rule(0.5, n_panels)
        assert x.shape == c.shape == (n_nodes,)
        for arr in (x, c):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert subordination._clock_rule(0.5, n_panels)[0] is x


# ---------------------------------------------------------------------------
# Monte-Carlo trajectory estimation
# ---------------------------------------------------------------------------

class TestTrajectoryEstimate:
    def test_identity_observable_exact(self):
        gen = dephasing_qubit(0.0, 0.5)
        est = trajectory_estimate(gen, 0.5, 1.0, plus_state(), np.eye(2),
                                  1000, 5)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_dephasing_benchmark(self):
        gen = dephasing_qubit(0.0, 0.5)
        est = trajectory_estimate(gen, 0.5, 1.0, plus_state(), PAULI_X,
                                  10**5, 2024)
        assert abs(est.mean - mittag_leffler(0.5, -1.0)) <= 4.0 * est.stderr
        assert est.n_samples == 10**5
        assert est.seed == 2024

    def test_deterministic_given_seed(self):
        gen = dephasing_qubit(0.0, 0.5)
        e1 = trajectory_estimate(gen, 0.5, 1.0, plus_state(), PAULI_X, 2000, 42)
        e2 = trajectory_estimate(gen, 0.5, 1.0, plus_state(), PAULI_X, 2000, 42)
        assert e1.mean == e2.mean
        assert e1.stderr == e2.stderr

    def test_stderr_scaling(self):
        gen = dephasing_qubit(0.0, 0.5)
        small = trajectory_estimate(gen, 0.5, 1.0, plus_state(), PAULI_X,
                                    20000, 99)
        large = trajectory_estimate(gen, 0.5, 1.0, plus_state(), PAULI_X,
                                    80000, 99)
        assert 0.42 <= large.stderr / small.stderr <= 0.58

    def test_seed_means_bracket_quadrature(self):
        gen = dephasing_qubit(0.0, 0.5)
        ref = subordinated_propagate(gen, 0.5, 1.0, plus_state())
        want = 2.0 * ref.entries[1, 0].real
        means = [
            trajectory_estimate(gen, 0.5, 1.0, plus_state(), PAULI_X,
                                4000, seed).mean
            for seed in range(1, 9)
        ]
        assert min(means) <= want <= max(means)

    @pytest.mark.parametrize("n_samples", [2, 4095, 4096, 4097, 10000])
    def test_matches_block_seeded_reference(self, n_samples):
        # Block b holds samples [4096 b, 4096 (b + 1)) and is one draw from
        # SeedSequence([seed, b]); for this generator and observable
        # tr[X e^(uL) rho_+] = exp(-2 gamma u).
        gamma, alpha, t, seed = 0.5, 0.5, 1.0, 31
        clock = OperationalClock(F(alpha), t)
        blocks = []
        for b, lo in enumerate(range(0, n_samples, 4096)):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([seed, b])))
            blocks.append(sample_clock(clock, rng,
                                       size=min(4096, n_samples - lo)))
        vals = np.exp(-2.0 * gamma * np.concatenate(blocks))
        assert vals.size == n_samples

        est = trajectory_estimate(dephasing_qubit(0.0, gamma), alpha, t,
                                  plus_state(), PAULI_X, n_samples, seed)
        assert est.n_samples == n_samples and est.seed == seed
        assert est.mean == pytest.approx(vals.mean(), rel=1e-12)
        assert est.stderr == pytest.approx(
            vals.std(ddof=1) / math.sqrt(n_samples), rel=1e-9)

    def test_validation(self):
        gen = dephasing_qubit(0.0, 0.5)
        with pytest.raises(ValidationError):
            trajectory_estimate(gen, 0.5, 1.0, plus_state(), PAULI_X, 1, 0)
        with pytest.raises(DomainError):
            trajectory_estimate(gen, 0.5, 0.0, plus_state(), PAULI_X, 10, 0)
        bad_obs = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            trajectory_estimate(gen, 0.5, 1.0, plus_state(), bad_obs, 10, 0)
        with pytest.raises(ValidationError):
            TrajectoryEstimate(0.5, -1.0, 10, 0)
        with pytest.raises(ValidationError):
            TrajectoryEstimate(0.5, 0.1, 1, 0)

    def test_negative_seed_rejected(self):
        # A SeedSequence entropy word must be >= 0; the check comes first.
        with pytest.raises(ValidationError, match="seed"):
            trajectory_estimate(dephasing_qubit(0.0, 0.5), 0.5, 1.0,
                                plus_state(), PAULI_X, 10, -3)

    @pytest.mark.parametrize("seed", [1.5, math.nan, math.inf, True])
    def test_non_whole_seed_rejected(self, seed):
        # A seed is a count: never truncated, never handed to numpy unchecked.
        with pytest.raises(ValidationError, match="seed"):
            trajectory_estimate(dephasing_qubit(0.0, 0.5), 0.5, 1.0,
                                plus_state(), PAULI_X, 10, seed)

    def test_superoperator_gives_same_bits(self):
        gen = dephasing_qubit(2.0, 0.5)
        args = (0.7, 1.5, plus_state(), PAULI_X, 5000, 17)
        est = trajectory_estimate(gen, *args)
        same = trajectory_estimate(build_superoperator(gen), *args)
        assert np.array_equal([est.mean, est.stderr],
                              [same.mean, same.stderr])

    def test_scalar_rate_rejected(self):
        # Checked before the observable, whose shape needs gen.dim.
        with pytest.raises(ValidationError, match="GKSLGenerator"):
            trajectory_estimate(1.0, 0.5, 1.0, plus_state(), PAULI_X, 10, 0)


# ---------------------------------------------------------------------------
# Divisibility witness
# ---------------------------------------------------------------------------

class TestDivisibilityDefect:
    def test_semigroup_limit(self):
        for lam, t, tau in ((1.0, 2.0, 1.0), (1.3, 2.0, 0.7), (0.5, 5.0, 3.3)):
            assert divisibility_defect(1.0, lam, t, tau) < 1e-13

    def test_benchmark_value(self):
        d = divisibility_defect(0.5, 1.0, 2.0, 1.0)
        full = mittag_leffler(0.5, -math.sqrt(2.0))
        half = mittag_leffler(0.5, -1.0)
        assert full == pytest.approx(0.33622, abs=5e-5)
        assert half**2 == pytest.approx(0.18283, abs=5e-5)
        assert d == pytest.approx(abs(full - half**2), abs=1e-14)
        assert d == pytest.approx(0.1534, abs=2e-4)

    def test_small_tau_continuity(self):
        defects = [divisibility_defect(0.5, 1.0, 2.0, tau)
                   for tau in (1e-2, 1e-4, 1e-6)]
        assert defects[0] > defects[1] > defects[2]
        assert defects[2] < 1e-2

    def test_validation(self):
        with pytest.raises(DomainError):
            divisibility_defect(0.5, 1.0, 2.0, 2.0)
        with pytest.raises(DomainError):
            divisibility_defect(0.5, 1.0, 2.0, 0.0)
        with pytest.raises(DomainError):
            divisibility_defect(0.5, -1.0, 2.0, 1.0)
