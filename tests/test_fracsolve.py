"""Tests for the fractional Adams-Moulton solvers and ML propagator."""

import csv
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fracdyn import fracsolve
from fracdyn.errors import (
    DomainError,
    NumericalInstabilityError,
    ValidationError,
)
from fracdyn.fracsolve import (
    FracTrajectory,
    WeightScheme,
    corrector_weights,
    fam_solve,
    fam_solve_soe,
    ml_propagate,
    predictor_weights,
)
from fracdyn.kernels import soe_compress
from fracdyn.lindblad import (
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    GKSLGenerator,
    build_superoperator,
    dephasing_qubit,
    plus_state,
    semigroup_apply,
)
from fracdyn.specfun import mittag_leffler
from fracdyn.subordination import subordinated_propagate

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


# Element-by-element reference loops for the solver cores, with the cores'
# (M, u0, ...) signatures and their weights in lag order.  They solve each step's linear system afresh and
# sum in another order; results must agree to rounding.

def _loop_implicit_blocks(M, u0, p0, oldest, lags, n_steps, modes=None):
    assert modes is None  # the SOE core has its own reference loop
    left = np.eye(len(u0)) - p0 * M
    u = np.empty((n_steps + 1, len(u0)), dtype=complex)
    g = np.empty_like(u)
    u[0], g[0] = u0, M @ u0
    for n in range(n_steps):
        acc = oldest[n] * g[0]
        for m in range(n):
            acc = acc + lags[n - m] * g[1 + m]
        u[n + 1] = np.linalg.solve(left, u0 + acc)
        g[n + 1] = M @ u[n + 1]
    return u


def _loop_dense_explicit(M, u0, pref, v, oldest, b, n_steps):
    u = np.empty((n_steps + 1, len(u0)), dtype=complex)
    g = np.empty_like(u)
    u[0], g[0] = u0, M @ u0
    for n in range(n_steps):
        pacc = np.zeros(len(u0), dtype=complex)
        for m in range(n + 1):
            pacc = pacc + b[n - m] * g[m]
        g_pred = M @ (u0 + pref * pacc)
        acc = oldest[n] * g[0]
        for m in range(n):
            acc = acc + v[n - m] * g[1 + m]
        u[n + 1] = u0 + pref * (acc + v[0] * g_pred)
        g[n + 1] = M @ u[n + 1]
    return u


def _loop_soe(M, u0, pref, alpha_w, a2, b2, w, eh, phi0, phi1, n_steps):
    left = np.eye(len(u0)) - pref * M
    u = np.empty((n_steps + 1, len(u0)), dtype=complex)
    g = np.empty_like(u)
    u[0], g[0] = u0, M @ u0
    H = np.zeros((len(w), len(u0)), dtype=complex)
    for n in range(n_steps):
        rhs = u0 + pref * alpha_w * g[n]
        for q in range(len(w)):
            rhs = rhs + w[q] * H[q]
        if n >= 1:
            rhs = rhs + a2 * g[n] + b2 * g[n - 1]
        u[n + 1] = np.linalg.solve(left, rhs)
        g[n + 1] = M @ u[n + 1]
        if n >= 1:
            for q in range(len(w)):
                H[q] = eh[q] * (H[q] + eh[q] * (phi1[q] * g[n - 1]
                                                + phi0[q] * g[n]))
    return u


def _fast_and_reference(monkeypatch, solve):
    """The raw core states of ``solve()``, run with the cores and then with
    the reference loops.

    Trajectory assembly is bypassed, so steps that the inconsistent
    PaperPrinted scheme takes outside the state tolerances are compared too.
    """
    monkeypatch.setattr(fracsolve, "_trajectory", lambda u, *args: u)
    fast = solve()
    monkeypatch.setattr(fracsolve, "_implicit_blocks", _loop_implicit_blocks)
    monkeypatch.setattr(fracsolve, "_dense_explicit_core",
                        _loop_dense_explicit)
    monkeypatch.setattr(fracsolve, "_soe_core", _loop_soe)
    return fast, solve()


def _pure(psi):
    psi = np.asarray(psi, dtype=complex) / np.linalg.norm(psi)
    return DensityMatrix(np.outer(psi, psi.conj()))


# Matrix flows with a Hamiltonian and a non-normal sigma_- (ladder) jump, so
# the superoperator is non-diagonal: (generator, initial state).
MATRIX_FLOWS = {
    "d2": (GKSLGenerator(0.7 * PAULI_X + 0.3 * PAULI_Z,
                         ((SIGMA_MINUS, 0.6), (PAULI_Z, 0.2))),
           plus_state()),
    "d3": (GKSLGenerator(np.array([[0.0, 0.4, 0.1j],
                                   [0.4, 0.5, 0.3],
                                   [-0.1j, 0.3, 1.0]]),
                         ((np.diag([1.0, math.sqrt(2.0)], 1), 0.3),)),
           _pure([1.0, 1.0j, 1.0])),
    # m = 16: the dense core's blocks are 256 // 32 = 8 steps, not 16.
    "d4": (GKSLGenerator(np.array([[0.0, 0.3, 0.0, 0.2j],
                                   [0.3, 0.4, 0.1, 0.0],
                                   [0.0, 0.1, 0.9, 0.3],
                                   [-0.2j, 0.0, 0.3, 1.3]]),
                         ((np.diag([1.0, math.sqrt(2.0), math.sqrt(3.0)], 1),
                           0.25), (np.diag([0.0, 1.0, 2.0, 3.0]), 0.1))),
           _pure([1.0, 1.0j, -0.5, 0.5])),
}


def _step_counts(m, cap=fracsolve._DENSE_BLOCK):
    """Run lengths for the core tests of an m x m operator: the first steps,
    one block B of the block loop (``cap`` steps, fewer for large m; 8 <= B
    <= 64 here) less one step, one block, one block and one step, and runs
    that end unevenly."""
    block = min(cap, fracsolve._DENSE_ROWS_MAX // (2 * m))
    return sorted({1, 2, block - 1, block, block + 1, 65, 130})


def _matrix_runs(cap):
    """(flow, n) for the matrix core tests, with the block edges of each
    flow for blocks of up to ``cap`` steps."""
    return [(flow, n) for flow in sorted(MATRIX_FLOWS)
            for n in _step_counts(MATRIX_FLOWS[flow][1].dim ** 2, cap)]


def _reference_defect(v):
    """Largest invariant defect of one vectorized state, checked on its own."""
    d = math.isqrt(len(v))
    m = v.reshape(d, d)
    herm = np.max(np.abs(m - m.conj().T))
    trace = abs(np.trace(m) - 1.0)
    neg = -np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))
    return max(herm, trace, neg)


def _assert_rounding_close(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# Weight sets
# ---------------------------------------------------------------------------

class TestPredictorWeights:
    def test_paper_printed_example(self):
        b = predictor_weights("paper_printed", 0.5, 1)
        assert b == pytest.approx([1.0, math.sqrt(2.0) - 1.0], abs=1e-12)

    def test_standard_alpha_one_rectangle(self):
        b = predictor_weights("standard_dff", 1.0, 2)
        assert b == pytest.approx([1.0, 1.0, 1.0], abs=0.0)

    def test_paper_printed_alpha_one_rectangle(self):
        b = predictor_weights(WeightScheme.PaperPrinted, 1.0, 3)
        assert b == pytest.approx([1.0] * 4, abs=0.0)

    def test_standard_formula(self):
        a = 0.7
        b = predictor_weights(WeightScheme.StandardDFF, a, 5)
        j = np.arange(6.0)
        assert b == pytest.approx((j + 1) ** a - j**a, rel=1e-14)

    def test_lengths_and_validation(self):
        assert len(predictor_weights("standard_dff", 0.3, 0)) == 1
        with pytest.raises(ValidationError):
            predictor_weights("standard_dff", 0.5, -1)
        with pytest.raises(ValidationError):
            predictor_weights("no_such_scheme", 0.5, 1)


class TestCorrectorWeights:
    def test_standard_interior_example(self):
        c = corrector_weights("standard_dff", 0.5, 3)
        assert c[0] == 1.0
        assert c[1] == pytest.approx(2.0**1.5 - 2.0, abs=1e-13)

    def test_paper_printed_interior_example(self):
        c = corrector_weights("paper_printed", 0.5, 3)
        assert c[0] == 1.0
        assert c[1] == 1.0
        assert c[2] == pytest.approx(math.sqrt(2.0) - 2.0, abs=1e-13)

    def test_alpha_one_trapezoid(self):
        c = corrector_weights("standard_dff", 1.0, 4)
        assert c == pytest.approx([1.0, 2.0, 2.0, 2.0, 2.0, 1.0], abs=0.0)
        c = corrector_weights("paper_printed", 1.0, 4)
        assert c == pytest.approx([0.5, 1.0, 1.0, 1.0, 1.0, 0.5], abs=0.0)

    def test_first_step_weights(self):
        a = 0.62
        c = corrector_weights("standard_dff", a, 0)
        assert c == pytest.approx([1.0, a], abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_constant_quadrature_exactness(self, alpha):
        # The weight set must integrate a constant exactly:
        # pref * sum(c) == t_{n+1}^alpha / Gamma(1+alpha).
        n = 25
        h = 0.1
        c = corrector_weights("standard_dff", alpha, n)
        pref = h**alpha / math.gamma(alpha + 2.0)
        exact = ((n + 1) * h) ** alpha / math.gamma(alpha + 1.0)
        assert pref * float(np.sum(c)) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_linear_quadrature_exactness(self, alpha):
        # ... and a linear function: int_0^t (t-s)^(a-1) s ds / Gamma(a)
        # = t^(a+1)/Gamma(a+2).
        n = 25
        h = 0.1
        c = corrector_weights("standard_dff", alpha, n)
        pref = h**alpha / math.gamma(alpha + 2.0)
        t = (n + 1) * h
        # c[i] weights the node at t_{n+1-i}
        nodes = t - h * np.arange(n + 2)
        assert pref * float(c @ nodes) == pytest.approx(
            t ** (alpha + 1.0) / math.gamma(alpha + 2.0), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            corrector_weights("standard_dff", 0.5, -1)

    @pytest.mark.parametrize("scheme", ["standard_dff", "paper_printed"])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_public_weights_are_the_solver_layout(self, scheme, alpha):
        # corrector_weights(n) is v[0..n] then oldest[n] of the arrays the
        # dense solver steps with, and matches the closed forms.
        v, oldest = fracsolve._history_weights(WeightScheme(scheme), alpha, 50)
        for n in range(51):
            c = corrector_weights(scheme, alpha, n)
            np.testing.assert_array_equal(c[:-1], v[: n + 1])
            assert c[-1] == oldest[n]
            np.testing.assert_allclose(c, _closed_form_corrector(scheme, alpha, n),
                                       rtol=0.0, atol=1e-13 * (n + 1) ** 2)


def _closed_form_corrector(scheme, a, n):
    """The corrector weights of the module docstring, term by term."""
    if a == 1.0:
        inner, end = (2.0, 1.0) if scheme == "standard_dff" else (1.0, 0.5)
        return [end] + [inner] * n + [end]
    if scheme == "standard_dff":
        return ([1.0] + [(i + 1) ** (a + 1) - 2 * i ** (a + 1) + (i - 1) ** (a + 1)
                         for i in range(1, n + 1)]
                + [n ** (a + 1) - (n - a) * (n + 1) ** a])
    return [1.0, 1.0] + [(m + 1) ** a - 2 * m**a + (m - 1) ** a
                         for m in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Scalar solver
# ---------------------------------------------------------------------------

class TestScalarSolve:
    def test_ml_oracle_alpha_half(self):
        tr = fam_solve(1.0, 0.5, 0.01, 100, 1.0)
        exact = mittag_leffler(0.5, -1.0)
        assert exact == pytest.approx(0.42758358, abs=1e-8)
        assert abs(complex(tr.states[-1]) - exact) < 1e-4

    def test_alpha_one_classical_am2(self):
        tr = fam_solve(1.0, 1.0, 0.01, 100, 1.0)
        assert abs(complex(tr.states[-1]) - math.exp(-1.0)) < 2e-4
        tr = fam_solve(1.0, 1.0, 0.01, 100, 1.0, "paper_printed")
        assert abs(complex(tr.states[-1]) - math.exp(-1.0)) < 2e-4

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_paper_printed_steps_with_published_weights(self, alpha):
        # D u = -u stepped by hand with predictor_weights/corrector_weights:
        # predict u0 + pref sum_j b_j g_{n-j}, then correct with c[0] on
        # the predicted point and c[i] on the state at t_{n+1-i}.
        h, n_steps = 0.01, 100
        pref = h**alpha / math.gamma(1.0 + alpha)
        u = [1.0]
        for n in range(n_steps):
            b = predictor_weights("paper_printed", alpha, n)
            c = corrector_weights("paper_printed", alpha, n)
            pred = 1.0 + pref * sum(b[j] * -u[n - j] for j in range(n + 1))
            u.append(1.0 + pref * (c[0] * -pred + sum(
                c[i] * -u[n + 1 - i] for i in range(1, n + 2))))
        tr = fam_solve(1.0, alpha, h, n_steps, 1.0, "paper_printed")
        np.testing.assert_allclose(np.asarray(tr.states).real, u,
                                   rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("alpha", [0.4, 0.6, 0.8])
    def test_convergence_order_standard(self, alpha):
        errs = []
        for h in (1.0 / 50.0, 1.0 / 100.0, 1.0 / 200.0):
            n = int(round(1.0 / h))
            tr = fam_solve(1.0, alpha, h, n, 1.0)
            errs.append(abs(complex(tr.states[-1])
                            - mittag_leffler(alpha, -1.0)))
        gate = 1.0 + alpha - 0.25
        assert math.log2(errs[0] / errs[1]) >= gate
        assert math.log2(errs[1] / errs[2]) >= gate

    def test_paper_printed_scheme_does_not_converge(self):
        # The printed weight exponents produce an inconsistent quadrature;
        # the error stays O(1) as h decreases.
        errs = []
        for h in (0.02, 0.01):
            n = int(round(1.0 / h))
            tr = fam_solve(1.0, 0.4, h, n, 1.0, "paper_printed")
            errs.append(abs(complex(tr.states[-1])
                            - mittag_leffler(0.4, -1.0)))
        assert min(errs) > 0.1
        assert math.log2(errs[0] / errs[1]) < 1.15

    def test_a_stability_large_step(self):
        # lambda * h^alpha = 10: implicit corrector stays bounded and decays.
        tr = fam_solve(1.0, 0.5, 100.0, 50, 1.0)
        mags = np.abs(np.asarray(tr.states))
        assert mags.max() <= 1.0 + 1e-12
        assert mags[-1] < 0.05

    @pytest.mark.parametrize("scheme", ["standard_dff", "paper_printed"])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("n", _step_counts(1))
    def test_core_matches_loop_reference(self, monkeypatch, scheme, alpha, n):
        _assert_rounding_close(*_fast_and_reference(
            monkeypatch,
            lambda: fam_solve(1.0 - 0.8j, alpha, 0.01, n, 0.5, scheme)))

    def test_trajectory_metadata(self):
        tr = fam_solve(1.0, 0.5, 0.1, 10, 1.0)
        assert tr.is_scalar
        assert tr.n_steps == 10
        assert tr.times() == pytest.approx(0.1 * np.arange(11), abs=1e-15)
        assert complex(tr.states[0]) == 1.0
        assert tr.final() == tr.states[-1]
        assert tr.scheme is WeightScheme.StandardDFF

    def test_validation_errors(self):
        with pytest.raises(DomainError):
            fam_solve(1.0, 0.5, -0.1, 10, 1.0)
        with pytest.raises(DomainError):
            fam_solve(1.0, 0.5, 0.1, 0, 1.0)
        with pytest.raises(DomainError):
            fam_solve(-1.0, 0.5, 0.1, 10, 1.0)
        with pytest.raises(DomainError):
            fam_solve(1.0, 0.5, 1e5, 11, 1.0)
        with pytest.raises(ValidationError):
            fam_solve(1.0, 0.5, 0.1, 10, 1.0, scheme="bogus")

    @pytest.mark.parametrize("history", ["dense", "soe"])
    def test_scalar_init_checked(self, history):
        # Scalar mode takes a finite number for init, as for lambda.
        def solve(init):
            if history == "dense":
                return fam_solve(1.0, 0.5, 0.1, 10, init)
            soe = soe_compress(0.5, t_min=0.1, t_max=1.0, tol=1e-8)
            return fam_solve_soe(1.0, 0.5, 0.1, 10, init, soe)

        for bad in (plus_state(), "rho", None, [1.0, 0.0]):
            with pytest.raises(ValidationError, match="init"):
                solve(bad)
        for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
            with pytest.raises(DomainError, match="init"):
                solve(bad)
        assert complex(solve(np.float64(0.5)).states[0]) == 0.5


# ---------------------------------------------------------------------------
# Matrix solver
# ---------------------------------------------------------------------------

class TestMatrixSolve:
    def test_scalar_matrix_consistency(self):
        # Pure dephasing at eps=0, gamma=1/2: rho_10 obeys the scalar
        # equation with lambda = 2 gamma = 1.
        gen = dephasing_qubit(0.0, 0.5)
        trm = fam_solve(gen, 0.6, 0.01, 120, plus_state())
        trs = fam_solve(1.0, 0.6, 0.01, 120, 0.5)
        dev = max(
            abs(trm.states[n].entries[1, 0] - complex(trs.states[n]))
            for n in range(121)
        )
        assert dev < 1e-10

    def test_trace_conservation(self):
        gen = dephasing_qubit(0.8, 0.5)
        tr = fam_solve(gen, 0.6, 0.01, 200, plus_state())
        dev = max(abs(complex(np.trace(s.entries)) - 1.0) for s in tr.states)
        assert dev < 1e-9

    def test_states_are_density_matrices(self):
        gen = dephasing_qubit(0.0, 0.5)
        rho0 = plus_state()
        tr = fam_solve(gen, 0.5, 0.05, 20, rho0)
        assert not tr.is_scalar
        assert tr.states[0] is rho0
        assert all(isinstance(s, DensityMatrix) for s in tr.states)
        # populations frozen under pure dephasing
        for s in tr.states:
            assert s.entries[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_instability_error_names_step(self, monkeypatch):
        # The error names the first step that fails a per-step check.
        core = fracsolve._dense_explicit_core
        raw = []
        monkeypatch.setattr(fracsolve, "_dense_explicit_core",
                            lambda *args: raw.append(core(*args)) or raw[-1])
        for gen, alpha, h in ((dephasing_qubit(0.0, 5.0), 0.5, 2.0),
                              (MATRIX_FLOWS["d2"][0], 0.3, 0.003)):
            with pytest.raises(NumericalInstabilityError) as err:
                fam_solve(gen, alpha, h, 40, plus_state(), "paper_printed")
            first = next(n for n in range(1, 41)
                         if _reference_defect(raw[-1][n]) > 1e-5)
            assert f"at step {first} (t = {first * h:g})" in str(err.value)
        assert first == 32

    def test_defects_above_warn_tolerance_warn_once(self, monkeypatch):
        core = fracsolve._implicit_blocks

        def skewed(*args):
            u = core(*args)
            u[[3, 5], 1] += 3e-6  # rho_01 only: a Hermiticity defect
            return u

        monkeypatch.setattr(fracsolve, "_implicit_blocks", skewed)
        with pytest.warns(RuntimeWarning) as record:
            tr = fam_solve(dephasing_qubit(0.0, 0.5), 0.5, 0.05, 20,
                           plus_state())
        assert len(record) == 1
        message = str(record[0].message)
        assert "at step 3 " in message and "(2 steps above it)" in message
        assert tr.n_steps == 20
        assert record[0].filename == __file__  # the caller's line

    @pytest.mark.parametrize("scheme", ["standard_dff", "paper_printed"])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("flow,n", _matrix_runs(fracsolve._DENSE_BLOCK))
    def test_core_matches_loop_reference(self, monkeypatch, flow, n, scheme,
                                         alpha):
        gen, init = MATRIX_FLOWS[flow]
        _assert_rounding_close(*_fast_and_reference(
            monkeypatch, lambda: fam_solve(gen, alpha, 0.01, n, init, scheme)))

    @pytest.mark.parametrize("scheme", ["standard_dff", "paper_printed"])
    def test_chunked_history_matches_loop_reference(self, monkeypatch,
                                                    scheme):
        # Blocks of 1, 3 and 7 steps, which every flow here admits; 3 and 7
        # end unevenly at n = 130, one and four steps into the last block.
        # Each run patches the cores in its own context, so every run steps
        # with the block core first.
        flows = list(MATRIX_FLOWS.values()) + [(1.0 - 0.8j, 0.5)]
        for block in (1, 3, 7):
            for gen, init in flows:
                with monkeypatch.context() as patch:
                    patch.setattr(fracsolve, "_DENSE_BLOCK", block)
                    _assert_rounding_close(*_fast_and_reference(
                        patch,
                        lambda: fam_solve(gen, 0.6, 0.01, 130, init, scheme)))

    def test_matrix_validation(self):
        gen = dephasing_qubit(0.0, 0.5)
        with pytest.raises(ValidationError):
            fam_solve(gen, 0.5, 0.1, 10, 0.5)  # scalar init, matrix gen


def _restacked_table(tr):
    """The float table of a matrix trajectory, built from its states."""
    stack = np.array([s.entries for s in tr.states])
    return np.column_stack((tr.times(),
                            stack.reshape(len(stack), -1).view(np.float64)))


class TestMatrixStates:
    """Matrix-mode ``states``: a sequence over the admitted stack."""

    @pytest.fixture(params=sorted(MATRIX_FLOWS))
    def trajectory(self, request):
        gen, init = MATRIX_FLOWS[request.param]
        return fam_solve(gen, 0.6, 0.01, 40, init), init

    def test_sequence_contract(self, trajectory):
        tr, init = trajectory
        states = tr.states
        assert len(states) == 41 and tr.n_steps == 40
        assert states[0] is init and states[-41] is init
        assert states[-1] is states[40] and states[-2] is states[39]
        assert tr.final() is states[-1]
        assert states[-1] is tr.states[-1]  # identity between accesses
        for index in (41, -42):
            with pytest.raises(IndexError):
                states[index]
        assert states[3:7] == tuple(states[k] for k in range(3, 7))
        assert states[::-10][0] is states[40]
        assert len(states[::-10]) == 5
        listed = list(states)
        assert len(listed) == 41
        assert all(a is b for a, b in zip(listed, states[:]))

    def test_identity_holds_across_threads(self, trajectory):
        # Threads that index the same fresh steps at once all get the same
        # objects.
        tr, _ = trajectory
        workers = 8
        start = threading.Barrier(workers)

        def list_states(states):
            start.wait(timeout=60)
            return list(states)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for _ in range(20):
                    states = fracsolve._StackedStates(
                        tr.states.init, tr.states.stack, 1e-5)
                    futures = [pool.submit(list_states, states)
                               for _ in range(workers)]
                    seen = [f.result(timeout=60) for f in futures]
                    for listed in seen:
                        assert all(a is b for a, b in zip(listed, states))
        finally:
            sys.setswitchinterval(interval)

    def test_states_are_admitted(self, trajectory):
        tr, init = trajectory
        tol = 2 * fracsolve._STATE_FAIL_TOL
        for state in tr.states[1:]:
            assert isinstance(state, DensityMatrix)
            assert state.herm_tol == state.trace_tol == state.psd_tol == tol
            np.testing.assert_array_equal(state.entries,
                                          state.entries.conj().T)
            with pytest.raises(ValueError):
                state.entries[0, 0] = 1.0

    def test_table_reads_the_stack(self, trajectory):
        tr, _ = trajectory
        columns, table = tr._matrix_table()
        assert len(columns) == table.shape[1]
        want = _restacked_table(tr)
        assert table.shape == want.shape
        assert table.tobytes() == want.tobytes()

    def test_table_builds_no_state(self, trajectory, monkeypatch):
        tr, _ = trajectory

        def refuse(*args):
            raise AssertionError("a state was built")

        monkeypatch.setattr(fracsolve, "_admitted_state", refuse)
        assert len(tr.states) == 41
        tr._matrix_table()


# ---------------------------------------------------------------------------
# SOE-compressed solver
# ---------------------------------------------------------------------------

class TestSoeSolve:
    def test_scalar_matches_dense(self):
        alpha, h, n = 0.5, 0.01, 400
        soe = soe_compress(alpha, t_min=h, t_max=h * n, tol=1e-8)
        dense = fam_solve(1.0, alpha, h, n, 1.0)
        fast = fam_solve_soe(1.0, alpha, h, n, 1.0, soe)
        dev = np.max(np.abs(np.asarray(dense.states) - np.asarray(fast.states)))
        assert dev < 10.0 * soe.tol

    def test_matrix_matches_dense(self):
        gen = dephasing_qubit(0.4, 0.5)
        alpha, h, n = 0.6, 0.01, 120
        soe = soe_compress(alpha, t_min=h, t_max=h * n, tol=1e-8)
        dense = fam_solve(gen, alpha, h, n, plus_state())
        fast = fam_solve_soe(gen, alpha, h, n, plus_state(), soe)
        dev = max(
            np.max(np.abs(dense.states[k].entries - fast.states[k].entries))
            for k in range(n + 1)
        )
        assert dev < 10.0 * soe.tol

    @pytest.mark.parametrize("flow", sorted(MATRIX_FLOWS))
    def test_matrix_flows_match_dense_over_many_blocks(self, flow):
        # Complex states and a non-normal jump, over 16 blocks or more.
        gen, init = MATRIX_FLOWS[flow]
        alpha, h, n = 0.6, 0.01, 1000
        soe = soe_compress(alpha, t_min=h, t_max=h * n, tol=1e-8)
        dense = fam_solve(gen, alpha, h, n, init)
        fast = fam_solve_soe(gen, alpha, h, n, init, soe)
        assert np.any(dense.states.stack.imag != 0.0)
        dev = np.max(np.abs(dense._matrix_table()[1]
                            - fast._matrix_table()[1]))
        assert dev < 10.0 * soe.tol

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("n", _step_counts(1, fracsolve._SOE_BLOCK))
    def test_core_matches_loop_reference(self, monkeypatch, alpha, n):
        h = 0.01
        soe = soe_compress(alpha, t_min=h, t_max=h * n, tol=1e-8)
        _assert_rounding_close(*_fast_and_reference(
            monkeypatch,
            lambda: fam_solve_soe(1.0 - 0.8j, alpha, h, n, 0.5, soe)))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("flow,n", _matrix_runs(fracsolve._SOE_BLOCK))
    def test_matrix_core_matches_loop_reference(self, monkeypatch, flow,
                                                alpha, n):
        gen, init = MATRIX_FLOWS[flow]
        h = 0.01
        soe = soe_compress(alpha, t_min=h, t_max=h * n, tol=1e-8)
        _assert_rounding_close(*_fast_and_reference(
            monkeypatch, lambda: fam_solve_soe(gen, alpha, h, n, init, soe)))

    def test_short_blocks_match_loop_reference(self, monkeypatch):
        # Blocks of 1, 2 and 5 steps, which d = 3 admits; in one-step blocks
        # every step crosses a block edge, and so do both exact lags.
        gen, init = MATRIX_FLOWS["d3"]
        soe = soe_compress(0.6, t_min=0.01, t_max=1.3, tol=1e-8)
        for block in (1, 2, 5):
            with monkeypatch.context() as patch:
                patch.setattr(fracsolve, "_SOE_BLOCK", block)
                _assert_rounding_close(*_fast_and_reference(
                    patch,
                    lambda: fam_solve_soe(gen, 0.6, 0.01, 130, init, soe)))

    def test_d8_matches_dense(self):
        # d = 8 (m = 64) steps in two-step blocks: a random Hermitian H and
        # a ladder jump, so the superoperator is dense and non-normal.
        rng = np.random.default_rng(8)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        gen = GKSLGenerator(0.25 * (a + a.conj().T),
                            ((np.diag(np.sqrt(np.arange(1.0, 8.0)), 1), 0.3),))
        init = _pure(rng.normal(size=8) + 1j * rng.normal(size=8))
        alpha, h, n = 0.7, 0.005, 300
        soe = soe_compress(alpha, t_min=h, t_max=h * n, tol=1e-8)
        dense = fam_solve(gen, alpha, h, n, init)
        fast = fam_solve_soe(gen, alpha, h, n, init, soe)
        dev = np.max(np.abs(dense._matrix_table()[1]
                            - fast._matrix_table()[1]))
        assert dev < 10.0 * soe.tol

    def test_alpha_one_identical(self):
        soe = soe_compress(1.0, t_min=0.01, t_max=1.0, tol=1e-8)
        dense = fam_solve(1.0, 1.0, 0.01, 100, 1.0)
        fast = fam_solve_soe(1.0, 1.0, 0.01, 100, 1.0, soe)
        dev = np.max(np.abs(np.asarray(dense.states) - np.asarray(fast.states)))
        assert dev < 1e-12

    @pytest.mark.slow
    def test_speedup_at_large_n(self):
        alpha, h, n = 0.5, 5e-4, 20000
        soe = soe_compress(alpha, t_min=h, t_max=h * n, tol=1e-8)
        # warm both code paths before timing
        fam_solve(1.0, alpha, h, 50, 1.0)
        fam_solve_soe(1.0, alpha, h, 50, 1.0, soe)
        t0 = time.perf_counter()
        dense = fam_solve(1.0, alpha, h, n, 1.0)
        t_dense = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = fam_solve_soe(1.0, alpha, h, n, 1.0, soe)
        t_soe = time.perf_counter() - t0
        dev = np.max(np.abs(np.asarray(dense.states) - np.asarray(fast.states)))
        assert dev < 10.0 * soe.tol
        assert t_dense >= 5.0 * t_soe

    def test_soe_validation(self):
        soe = soe_compress(0.5, t_min=0.01, t_max=1.0, tol=1e-8)
        with pytest.raises(ValidationError):
            fam_solve_soe(1.0, 0.5, 0.01, 100, 1.0, soe, "paper_printed")
        with pytest.raises(ValidationError):
            fam_solve_soe(1.0, 0.6, 0.01, 100, 1.0, soe)  # alpha mismatch
        with pytest.raises(ValidationError):
            fam_solve_soe(1.0, 0.5, 0.01, 500, 1.0, soe)  # range too short
        with pytest.raises(ValidationError, match="SOEKernel"):
            fam_solve_soe(1.0, 0.5, 0.01, 100, 1.0, "x")


# ---------------------------------------------------------------------------
# Spectral (Mittag-Leffler) propagation
# ---------------------------------------------------------------------------

class TestMlPropagate:
    def test_dephasing_exact(self):
        gen = dephasing_qubit(0.0, 0.5)
        out = ml_propagate(gen, 0.6, 1.2, plus_state())
        expect = 0.5 * mittag_leffler(0.6, -(1.2**0.6))
        assert out.entries[1, 0] == pytest.approx(expect, abs=1e-12)
        assert out.entries[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_alpha_one_matches_semigroup(self):
        gen = dephasing_qubit(0.7, 0.3)
        r1 = ml_propagate(gen, 1.0, 0.7, plus_state())
        r2 = semigroup_apply(build_superoperator(gen), 0.7, plus_state())
        assert np.max(np.abs(r1.entries - r2.entries)) < 1e-10

    def test_complex_eigenvalue_precession(self, ml_mpmath):
        gen = GKSLGenerator(0.5 * PAULI_Z, ())
        out = ml_propagate(gen, 0.6, 2.0, plus_state())
        expect = 0.5 * ml_mpmath(0.6, 1j * 2.0**0.6)
        assert abs(out.entries[1, 0] - expect) < 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 0.95])
    @pytest.mark.parametrize("t", [1.0, 5.0, 20.0])
    def test_precessing_dephasing_matches_subordination(self, alpha, t):
        # Complex generator eigenvalues, e.g. -1 +- 4i for dephasing_qubit(2,
        # 0.5), where the Taylor series of E_alpha had max terms near 1e10.
        gen = dephasing_qubit(2.0, 0.5)
        out = ml_propagate(gen, alpha, t, plus_state())
        ref = subordinated_propagate(gen, alpha, t, plus_state())
        assert np.max(np.abs(out.entries - ref.entries)) <= 1e-10

    def test_matches_fam_solve(self):
        gen = dephasing_qubit(0.4, 0.5)
        tr = fam_solve(gen, 0.6, 0.005, 200, plus_state())
        out = ml_propagate(gen, 0.6, 1.0, plus_state())
        dev = np.max(np.abs(tr.states[-1].entries - out.entries))
        assert dev < 5e-5  # solver discretization error at h = 0.005

    def test_time_zero_identity(self):
        gen = dephasing_qubit(0.0, 0.5)
        rho0 = plus_state()
        assert ml_propagate(gen, 0.5, 0.0, rho0) is rho0

    def test_negative_time_rejected(self):
        gen = dephasing_qubit(0.0, 0.5)
        with pytest.raises(DomainError):
            ml_propagate(gen, 0.5, -0.1, plus_state())

    def test_ill_conditioned_eigenbasis_diagnostic(self):
        # Driven amplitude damping at its exceptional point Omega = gamma/4:
        # the superoperator eigenbasis degenerates.
        gen = GKSLGenerator((1.0 / 8.0) * PAULI_X, ((SIGMA_MINUS, 1.0),))
        rho0 = DensityMatrix(np.array([[0.0, 0.0], [0.0, 1.0]], complex))
        with pytest.raises(NumericalInstabilityError, match="fam_solve"):
            ml_propagate(gen, 0.7, 1.0, rho0)

    def test_superoperator_gives_same_bits(self):
        gen = dephasing_qubit(2.0, 0.5)
        out = ml_propagate(gen, 0.7, 1.5, plus_state())
        same = ml_propagate(build_superoperator(gen), 0.7, 1.5, plus_state())
        assert np.array_equal(out.entries, same.entries)

    def test_scalar_rate_rejected(self):
        # The spectral route is matrix-only: a rate is no generator.
        with pytest.raises(ValidationError, match="GKSLGenerator"):
            ml_propagate(1.0, 0.5, 1.0, plus_state())


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

class TestCsvExport:
    def test_scalar_csv(self, tmp_path):
        tr = fam_solve(1.0, 0.5, 0.1, 5, 1.0)
        path = tmp_path / "traj.csv"
        tr.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "re_u", "im_u", "abs_u"]
        assert len(rows) == 7
        assert float(rows[1][0]) == 0.0
        assert float(rows[1][1]) == 1.0
        u_final = complex(tr.states[-1])
        assert float(rows[-1][1]) == pytest.approx(u_final.real, abs=0.0)
        assert float(rows[-1][3]) == pytest.approx(abs(u_final), abs=0.0)

    def test_matrix_csv(self, tmp_path):
        gen = dephasing_qubit(0.3, 0.5)
        tr = fam_solve(gen, 0.6, 0.05, 4, plus_state())
        path = tmp_path / "traj.csv"
        tr.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "t",
            "re_00", "im_00", "re_01", "im_01",
            "re_10", "im_10", "re_11", "im_11",
        ]
        assert len(rows) == 6
        # first row is the initial plus state, row-major
        assert [float(x) for x in rows[1][1:]] == pytest.approx(
            [0.5, 0.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0], abs=0.0
        )
        final = tr.states[-1].entries
        assert float(rows[-1][5]) == pytest.approx(final[1, 0].real, abs=0.0)
        assert float(rows[-1][6]) == pytest.approx(final[1, 0].imag, abs=0.0)
