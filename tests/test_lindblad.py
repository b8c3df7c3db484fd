"""Unit tests for fracdyn.lindblad: GKSL generators and semigroup flow."""

import math

import numpy as np
import pytest

from fracdyn.errors import (
    DomainError,
    NumericalInstabilityError,
    ValidationError,
)
from fracdyn.lindblad import (
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    GKSLGenerator,
    Superoperator,
    _admit_flow,
    _check_flow,
    _density_defects,
    build_superoperator,
    cptp_diagnostics,
    density_from_json,
    density_to_json,
    dephasing_qubit,
    generator_from_json,
    generator_to_json,
    plus_state,
    semigroup_apply,
    unvec,
    vec,
)


# ----------------------------------------------------------------------------
# Types and validation
# ----------------------------------------------------------------------------

def test_density_matrix_accepts_valid_state():
    rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    assert rho.dim == 2
    assert rho.purity() == pytest.approx(0.625, rel=1e-14)


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([0.6, 0.6]).astype(complex))


def test_density_matrix_rejects_negative_eigenvalue():
    bad = np.array([[0.7, 0.5], [0.5, 0.3]], dtype=complex)  # min eig < 0
    with pytest.raises(ValidationError):
        DensityMatrix(bad)


def test_density_matrix_entries_immutable():
    rho = plus_state()
    with pytest.raises((ValueError, RuntimeError)):
        rho.entries[0, 0] = 0.3


def test_density_defects_of_a_stack():
    # Hermiticity, trace and spectrum defects matrix by matrix; a matrix
    # with a non-finite entry reads inf on all three.
    stack = np.array([
        np.diag([0.25, 0.75]),
        [[0.5, 0.3], [0.1, 0.5]],
        np.diag([0.6, 0.6]),
        [[0.7, 0.5], [0.5, 0.3]],
        [[np.nan, 0.0], [0.0, 1.0]],
    ], dtype=complex)
    herm, trace, neg = _density_defects(stack)
    min_eig = 0.5 - math.sqrt(0.2**2 + 0.5**2)
    np.testing.assert_allclose(herm, [0.0, 0.2, 0.0, 0.0, np.inf], atol=1e-15)
    np.testing.assert_allclose(trace, [0.0, 0.0, 0.2, 0.0, np.inf],
                               atol=1e-15)
    np.testing.assert_allclose(neg, [0.0, 0.0, 0.0, -min_eig, np.inf],
                               atol=1e-15)
    one = _density_defects(stack[1])
    assert [float(x) for x in one] == [herm[1], trace[1], neg[1]]


def _reference_defects(stack):
    """The defects with an eigensolve of every matrix."""
    adj = np.conj(np.swapaxes(stack, -1, -2))
    herm = np.max(np.abs(stack - adj), axis=(-2, -1))
    trace = np.abs(np.trace(stack, axis1=-2, axis2=-1) - 1.0)
    neg = np.maximum(0.0, -np.linalg.eigvalsh(0.5 * (stack + adj))[..., 0])
    return herm, trace, neg


def _gershgorin_bound(m):
    """min_i (a_ii - sum_{j != i} |a_ij|) of m's Hermitian part."""
    sym = 0.5 * (m + m.conj().T)
    d = len(m)
    return min(sym[i, i].real - sum(abs(sym[i, j]) for j in range(d) if j != i)
               for i in range(d))


def _random_stack(rng, d, k):
    """Unit-trace matrices of four kinds: diagonally dominant states,
    pure states, Hermitian matrices with a negative eigenvalue, and
    slightly non-Hermitian mixtures of these."""
    out = []
    for i in range(k):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        kind = i % 4
        if kind == 0:
            p = rng.uniform(0.0, 0.3)
            m = (1 - p) * np.eye(d) / d + p * (z @ z.conj().T) / np.trace(
                z @ z.conj().T).real
        elif kind == 1:
            psi = z[:, 0] / np.linalg.norm(z[:, 0])
            m = np.outer(psi, psi.conj())
        elif kind == 2:
            h = z + z.conj().T
            m = (h - (np.trace(h).real - 1.0) * np.eye(d) / d)
        else:
            m = np.eye(d) / d + 1e-13 * z
        out.append(m)
    return np.array(out)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_density_defects_against_an_eigensolve_of_each(d, monkeypatch):
    # herm and trace are the reference's; neg is the reference's wherever
    # Gershgorin's bound is negative, and 0 where it certifies the state
    # (the reference then reads roundoff at most).
    rng = np.random.default_rng(100 + d)
    stack = _random_stack(rng, d, 64)
    stack[7, 0, 1] = np.nan
    stack[9, 1, 1] = np.inf
    finite = np.all(np.isfinite(stack), axis=(-2, -1))
    ref = _reference_defects(np.where(finite[:, None, None], stack, 0.0))
    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(
        len(a)) or eigvalsh(a))
    herm, trace, neg = _density_defects(stack)
    monkeypatch.undo()
    certified = np.array([finite[k] and _gershgorin_bound(m) >= 0.0
                          for k, m in enumerate(stack)])
    open_ = finite & ~certified
    assert 0 < certified.sum() and 0 < open_.sum()
    assert sum(solved) == open_.sum()
    for got, want in zip((herm, trace), ref):
        assert np.array_equal(got[finite], want[finite])
    assert np.all(np.isinf([herm[~finite], trace[~finite], neg[~finite]]))
    assert np.array_equal(neg[open_], ref[2][open_])
    assert np.all(neg[certified] == 0.0)
    assert np.all(ref[2][certified] <= 1e-15)
    assert np.any(neg[open_] > 1e-3)  # the non-PSD kind reaches eigvalsh
    for k in (0, 1, 2, 7):  # one matrix gives the stack's values
        assert [float(x) for x in _density_defects(stack[k])] == [
            herm[k], trace[k], neg[k]]


def _state_with_min_eig(e, angle=0.3):
    """A rotated diag(1 - e, e): unit trace, smallest eigenvalue e."""
    c, s = math.cos(angle), math.sin(angle)
    u = np.array([[c, -s], [s, c]], dtype=complex)
    return u @ np.diag([1.0 - e, e]) @ u.T


def test_check_flow_reports_the_first_negative_state():
    # Certified states, then states left to eigvalsh: the failure and the
    # warning name the same step and value as an eigensolve of each.
    mixed = np.eye(2, dtype=complex) / 2
    stack = np.array([mixed] * 4 + [_state_with_min_eig(-1e-8)]
                     + [mixed] * 2 + [_state_with_min_eig(-1e-6)]
                     + [_state_with_min_eig(0.2)])
    times = 0.5 * np.arange(1, len(stack) + 1)
    worst = np.max(_reference_defects(stack), axis=0)
    with pytest.raises(NumericalInstabilityError) as exc:
        _check_flow(stack, "state", 1e-7, 1e-9, times=times)
    assert str(exc.value) == (f"state defect {worst[7]:g} at step 8 "
                              f"(t = {times[7]:g}) exceeds 1e-07")
    with pytest.warns(RuntimeWarning) as record:
        sym = _check_flow(stack, "state", 1e-5, 1e-9, times=times)
    assert [str(w.message) for w in record] == [
        f"state defect {worst[4]:g} at step 5 (t = {times[4]:g}) above "
        f"1e-09 (2 steps above it)"]
    assert np.array_equal(
        sym, 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2))))


def test_admitted_states_are_read_only_hermitian_parts():
    stack = np.array([[[0.5, 0.3], [0.1, 0.5]], np.eye(2) / 2], dtype=complex)
    states = _admit_flow(stack, "state", 1.0, 1e-3)
    assert all(isinstance(s, DensityMatrix) for s in states)
    np.testing.assert_array_equal(states[0].entries,
                                  [[0.5, 0.2], [0.2, 0.5]])
    assert states[1].psd_tol == states[1].trace_tol == 1e-3
    with pytest.raises(ValueError):
        states[1].entries[0, 0] = 1.0


@pytest.mark.parametrize("m", [
    [[True, 0.0], [0.0, 0.0]],
    [[1.0, 0.0], [0.0, np.False_]],
    ([0.5, 0.5], (0.5, True)),
    [np.array([True, False]), np.array([0.0, 0.0])],
    np.eye(2, dtype=bool),
], ids=["bool", "numpy-bool", "tuple", "bool-row", "bool-array"])
def test_bool_entries_are_not_numbers(m):
    # numpy turns a bool mixed with numbers into 1.0 or 0.0.
    with pytest.raises(ValidationError, match="square matrix of numbers"):
        DensityMatrix(m)
    with pytest.raises(ValidationError, match="square matrix of numbers"):
        GKSLGenerator(m)
    with pytest.raises(ValidationError, match="square matrix of numbers"):
        GKSLGenerator(np.zeros((2, 2)), ((m, 0.5),))


def test_integer_entries_are_numbers():
    assert np.array_equal(DensityMatrix([[1, 0], [0, 0]]).entries,
                          np.diag([1.0, 0.0]))


def test_generator_rejects_non_hermitian_hamiltonian():
    with pytest.raises(ValidationError):
        GKSLGenerator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_generator_rejects_negative_rate():
    with pytest.raises(ValidationError):
        GKSLGenerator(np.zeros((2, 2)), ((PAULI_Z, -0.1),))


def test_generator_rejects_dimension_mismatch():
    with pytest.raises(ValidationError):
        GKSLGenerator(np.zeros((3, 3)), ((PAULI_Z, 0.1),))


def test_generator_allows_empty_channels():
    gen = GKSLGenerator(0.5 * PAULI_Z)
    assert gen.channels == ()
    assert gen.dim == 2


def test_superoperator_shape_validation():
    with pytest.raises(ValidationError):
        Superoperator(2, np.zeros((3, 3), dtype=complex))


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.array_equal(unvec(vec(m), d), m)


# ----------------------------------------------------------------------------
# build_superoperator
# ----------------------------------------------------------------------------

def test_liouville_qubit_spectrum():
    sup = build_superoperator(dephasing_qubit(1.0, 0.0))
    eigs = np.sort_complex(np.linalg.eigvals(sup.matrix))
    expected = np.sort_complex(np.array([0.0, 0.0, 1.0j, -1.0j]))
    assert np.allclose(eigs, expected, atol=1e-12)


def test_dephasing_qubit_spectrum_is_minus_two_gamma():
    gamma = 0.7
    sup = build_superoperator(dephasing_qubit(0.0, gamma))
    eigs = np.sort(np.linalg.eigvals(sup.matrix).real)
    assert np.allclose(eigs, [-2 * gamma, -2 * gamma, 0.0, 0.0], atol=1e-12)


def test_dephasing_coherence_ode_convention():
    # The defining convention: d(rho_10)/dt = (i eps - 2 gamma) rho_10.
    eps, gamma = 1.3, 0.45
    sup = build_superoperator(dephasing_qubit(eps, gamma))
    e10 = np.zeros((2, 2), dtype=complex)
    e10[1, 0] = 1.0
    out = unvec(sup.matrix @ vec(e10), 2)
    assert out[1, 0] == pytest.approx(1j * eps - 2 * gamma, abs=1e-14)
    assert abs(out[0, 0]) + abs(out[1, 1]) + abs(out[0, 1]) <= 1e-14


def _kron_superoperator(gen):
    """The GKSL matrix assembled with np.kron."""
    d = gen.dim
    eye = np.eye(d, dtype=complex)
    H = gen.hamiltonian
    M = -1.0j * (np.kron(H, eye) - np.kron(eye, H.T))
    for L, rate in gen.channels:
        if rate == 0.0:
            continue
        LdL = L.conj().T @ L
        M = M + rate * (np.kron(L, L.conj())
                        - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T)))
    return M


@pytest.mark.parametrize("d", [2, 3, 4])
def test_superoperator_equals_the_kron_assembly(d):
    rng = np.random.default_rng(40 + d)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    channels = tuple(
        (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), rate)
        for rate in (0.3, 0.0, 1.7))
    gen = GKSLGenerator(z + z.conj().T, channels)
    assert np.array_equal(build_superoperator(gen).matrix,
                          _kron_superoperator(gen))


def test_zero_generator_gives_zero_matrix():
    sup = build_superoperator(GKSLGenerator(np.zeros((2, 2))))
    assert np.max(np.abs(sup.matrix)) == 0.0


def test_trace_form_annihilated():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = 0.5 * (A + A.conj().T)
        L = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        sup = build_superoperator(GKSLGenerator(H, ((L, 0.4),)))
        assert sup.trace_form_defect() <= 1e-14


# ----------------------------------------------------------------------------
# semigroup_apply
# ----------------------------------------------------------------------------

def test_semigroup_u_zero_identity():
    rho = plus_state()
    sup = build_superoperator(dephasing_qubit(1.0, 0.3))
    assert semigroup_apply(sup, 0.0, rho) is rho


def test_semigroup_dephasing_reference():
    sup = build_superoperator(dephasing_qubit(0.0, 0.1))
    out = semigroup_apply(sup, 5.0, plus_state())
    assert out.entries[0, 1].real == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)
    assert abs(out.entries[0, 1].imag) <= 1e-14


def test_semigroup_half_larmor_period():
    sup = build_superoperator(dephasing_qubit(1.0, 0.0))
    out = semigroup_apply(sup, math.pi, plus_state())
    assert out.entries[0, 1] == pytest.approx(-0.5 + 0.0j, abs=1e-12)


def test_semigroup_rejects_negative_time():
    sup = build_superoperator(dephasing_qubit(0.0, 0.1))
    with pytest.raises(DomainError):
        semigroup_apply(sup, -0.1, plus_state())


def test_semigroup_law_random_generators():
    rng = np.random.default_rng(42)
    for d in (2, 3, 4):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = 0.5 * (A + A.conj().T)
        L = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        sup = build_superoperator(GKSLGenerator(H, ((L, 0.3),)))
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        joined = semigroup_apply(sup, 0.9, rho).entries
        split = semigroup_apply(sup, 0.4, semigroup_apply(sup, 0.5, rho)).entries
        assert np.max(np.abs(joined - split)) <= 1e-10
        assert abs(np.trace(joined) - 1.0) <= 1e-12


def test_dephasing_purity_monotone_non_increasing():
    sup = build_superoperator(dephasing_qubit(0.8, 0.2))
    rho = plus_state()
    purities = [semigroup_apply(sup, u, rho).purity()
                for u in np.linspace(0.0, 6.0, 25)]
    assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))


def test_liouville_flow_is_isometry():
    sup = build_superoperator(dephasing_qubit(1.7, 0.0))
    rho = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
    rot = np.array([[0.8, 0.6], [-0.6, 0.8]])
    rho = DensityMatrix(rot @ rho.entries @ rot.T)
    for u in (0.3, 1.1, 4.7):
        out = semigroup_apply(sup, u, rho)
        assert np.allclose(out.eigenvalues(), rho.eigenvalues(), atol=1e-10)


def test_semigroup_warns_at_the_callers_line(monkeypatch):
    # A map that leaks rho_00 into rho_01: defect 5e-9, between the warn
    # and fail tolerances.
    import scipy.linalg

    exact = scipy.linalg.expm

    def skewed(A):
        phi = exact(A)
        phi[1, 0] += 1e-8
        return phi

    monkeypatch.setattr(scipy.linalg, "expm", skewed)
    sup = build_superoperator(dephasing_qubit(0.0, 0.1))
    with pytest.warns(RuntimeWarning, match="defect 5e-09 above 1e-09") as rec:
        semigroup_apply(sup, 1.0, plus_state())
    assert len(rec) == 1 and rec[0].filename == __file__


def test_semigroup_instability_on_trace_violating_matrix():
    bad = Superoperator(2, 0.1 * np.eye(4, dtype=complex))
    with pytest.raises(NumericalInstabilityError):
        semigroup_apply(bad, 1.0, plus_state())


# ----------------------------------------------------------------------------
# cptp_diagnostics
# ----------------------------------------------------------------------------

def test_cptp_valid_generator():
    sup = build_superoperator(dephasing_qubit(0.4, 0.7))
    defect, min_eig = cptp_diagnostics(sup, 1.0)
    assert defect <= 1e-12
    assert min_eig >= -1e-10


def test_cptp_identity_map():
    sup = build_superoperator(dephasing_qubit(0.4, 0.7))
    defect, min_eig = cptp_diagnostics(sup, 0.0)
    assert defect <= 1e-14
    assert abs(min_eig) <= 1e-14


def test_cptp_negative_rate_witness():
    # gamma = -0.5 dephasing equals the negated gamma = +0.5 superoperator
    # (the generator type forbids negative rates, so inject directly).
    pos = build_superoperator(dephasing_qubit(0.0, 0.5))
    neg = Superoperator(2, -pos.matrix)
    _, min_eig = cptp_diagnostics(neg, 1.0)
    assert min_eig < -1e-3


def test_cptp_dimension_cap():
    big = Superoperator(9, np.zeros((81, 81), dtype=complex))
    with pytest.raises(ValidationError):
        cptp_diagnostics(big, 1.0)


# ----------------------------------------------------------------------------
# JSON round trips
# ----------------------------------------------------------------------------

def test_generator_json_round_trip():
    gen = dephasing_qubit(0.3, 0.2)
    back = generator_from_json(generator_to_json(gen))
    assert np.array_equal(back.hamiltonian, gen.hamiltonian)
    assert len(back.channels) == 1
    assert np.array_equal(back.channels[0][0], gen.channels[0][0])
    assert back.channels[0][1] == 0.2


def test_density_json_round_trip():
    rho = plus_state()
    back = density_from_json(density_to_json(rho))
    assert np.array_equal(back.entries, rho.entries)


def test_json_malformed_raises():
    with pytest.raises(ValidationError):
        density_from_json({"dim": 2, "entries": [[1.0, 0.0]]})
    with pytest.raises(ValidationError):
        generator_from_json({"dim": 2})


@pytest.mark.parametrize("rate", [True, False, "0.5", None, [0.5]])
def test_generator_json_rate_must_be_a_number(rate):
    data = generator_to_json(dephasing_qubit(0.3, 0.2))
    data["channels"][0]["rate"] = rate
    with pytest.raises(ValidationError, match="rate"):
        generator_from_json(data)


_ZEROS = [[0.0, 0.0]] * 3


@pytest.mark.parametrize("pairs", [[["0.5", "0"]] + _ZEROS,
                                   [[0.5, "0"]] + _ZEROS,
                                   [[True, False]] * 4,
                                   [[None, 0.0]] + _ZEROS,
                                   [[0.5]] + _ZEROS,
                                   [[True, 0.0]] + _ZEROS])
def test_json_entries_must_be_number_pairs(pairs):
    gen = generator_to_json(dephasing_qubit(0.3, 0.2))
    channel = dict(gen["channels"][0], jump=pairs)
    for doc in (dict(gen, hamiltonian=pairs), dict(gen, channels=[channel])):
        with pytest.raises(ValidationError, match="pairs of numbers"):
            generator_from_json(doc)
    with pytest.raises(ValidationError, match="pairs of numbers"):
        density_from_json({"dim": 2, "entries": pairs})


def test_json_integer_entries_are_numbers():
    gen = generator_from_json({
        "dim": 2, "hamiltonian": [[0, 0], [1, 0], [1, 0], [0, 0]],
        "channels": [{"jump": [[1, 0], [0, 0], [0, 0], [-1, 0]], "rate": 1}]})
    assert np.array_equal(gen.hamiltonian, PAULI_X)
    assert gen.channels[0][1] == 1.0
