"""GKSL (Lindblad) generators, semigroup propagation, and CPTP diagnostics.

States are density matrices (Hermitian, unit trace, positive semidefinite);
generators have the GKSL form

    L(rho) = -i[H, rho]
             + sum_j gamma_j ( L_j rho L_j^dag - (1/2){L_j^dag L_j, rho} ),

which is the most general generator of a CPTP semigroup.  Superoperators act
on row-major vectorized states, vec(rho) = rho.ravel(order="C"), for which

    M = -i (H (x) I - I (x) H^T)
        + sum_j gamma_j [ L_j (x) conj(L_j)
                          - 1/2 (L_j^dag L_j (x) I + I (x) (L_j^dag L_j)^T) ]

and rho(u) = unvec(expm(u M) vec(rho)).

Rate convention: for the pure-dephasing qubit with H = (eps/2) sigma_z and a
single jump L = sigma_z at rate gamma, the upper coherence u = rho_10 obeys
du/du = (i eps - 2 gamma) u; :func:`dephasing_qubit` reproduces this exactly
with the raw (unnormalized) channel (sigma_z, gamma).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (NumericalInstabilityError, ValidationError, _count,
                     _finite_float, _holds_bool, _instance, _nonneg_float)

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "DensityMatrix",
    "GKSLGenerator",
    "Superoperator",
    "vec",
    "unvec",
    "build_superoperator",
    "semigroup_apply",
    "cptp_diagnostics",
    "dephasing_qubit",
    "plus_state",
    "density_to_json",
    "density_from_json",
    "generator_to_json",
    "generator_from_json",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _pauli in (PAULI_X, PAULI_Y, PAULI_Z):
    _pauli.setflags(write=False)  # shared by the API and the CLI observables

# Validation tolerances: strict construction / runtime warning / hard failure.
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10
_FLOW_WARN_TOL = 1e-9
_FLOW_FAIL_TOL = 1e-7
_EIG_COND_MAX = 1e8  # eigenbases from this condition number on are refused


def vec(rho: np.ndarray) -> np.ndarray:
    """Row-major (C-order) vectorization of a d x d matrix."""
    return np.asarray(rho, dtype=complex).ravel(order="C")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    dim = _count(dim, "unvec dim", 1)
    v = np.asarray(v, dtype=complex)
    if v.size != dim * dim:
        raise ValidationError(f"unvec: {v.size} entries for dim^2 = {dim * dim}")
    return v.reshape(dim, dim, order="C")


def _as_square_complex(m, name: str) -> np.ndarray:
    try:
        arr = np.asarray(m)
    except ValueError:  # a ragged nest of lists
        arr = np.asarray(None)
    if arr.dtype.kind not in "iufc" or arr.ndim != 2 \
            or arr.shape[0] != arr.shape[1] or _holds_bool(m):
        raise ValidationError(f"{name} must be a square matrix of numbers")
    arr = np.asarray(arr, dtype=complex)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidationError(f"{name} must have finite entries")
    return arr


def _hermitian(m, name: str) -> np.ndarray:
    """:func:`_as_square_complex`, refused unless Hermitian to _HERM_TOL."""
    arr = _as_square_complex(m, name)
    herm = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if herm > _HERM_TOL:
        raise ValidationError(f"{name} not Hermitian (defect {herm:g})")
    return arr


def _defects_and_hermitian_part(
    entries: np.ndarray,
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """Hermiticity, trace and negative-eigenvalue defects of a stack, and
    the stack's Hermitian parts.

    ``entries`` has shape (..., d, d); each defect is an array over the
    leading axes (0-d for one matrix).  A matrix with a non-finite entry has
    all three defects inf.  A matrix whose Hermitian part Gershgorin's bound
    shows to be positive semidefinite has negative-eigenvalue defect 0
    without an eigensolve; only the others take ``eigvalsh``.
    """
    if not np.all(np.isfinite(entries)):
        # eigvalsh rejects non-finite input: check a zero stand-in instead.
        finite = np.all(np.isfinite(entries), axis=(-2, -1))
        stand_in = np.where(finite[..., None, None], entries, 0.0)
        defects, sym = _defects_and_hermitian_part(stand_in)
        return tuple(np.where(finite, x, np.inf) for x in defects), sym
    adj = np.conj(np.swapaxes(entries, -1, -2))
    herm = np.max(np.abs(entries - adj), axis=(-2, -1))
    trace = np.abs(np.trace(entries, axis1=-2, axis2=-1) - 1.0)
    sym = 0.5 * (entries + adj)
    # Every eigenvalue of sym is at least min_i (a_ii - sum_{j != i} |a_ij|)
    # (Gershgorin); where no a_ii falls below its radius, none is negative.
    diag = np.diagonal(sym, axis1=-2, axis2=-1).real
    radius = np.einsum("...ij->...i", np.abs(sym)) - np.abs(diag)
    # OR the d columns together: numpy reduces a short last axis slowly.
    open_ = np.logical_or.reduce(list(np.moveaxis(diag < radius, -1, 0)))
    neg = np.zeros(open_.shape)
    if np.any(open_):
        # Gathering every matrix would only copy the stack.
        part = sym if np.all(open_) else sym[open_]
        neg[open_] = np.maximum(0.0, -np.linalg.eigvalsh(part)[..., 0])
    return (herm, trace, neg), sym


@dataclass(frozen=True)
class DensityMatrix:
    """A quantum state: Hermitian, unit-trace, positive-semidefinite matrix
    (to _HERM_TOL, _TRACE_TOL, _PSD_TOL; a propagated one to its route's)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = _hermitian(self.entries, "density matrix")
        _, trace, neg = map(float, _defects_and_hermitian_part(arr)[0])
        if trace > _TRACE_TOL:
            raise ValidationError(f"density matrix trace defect {trace:g}")
        if neg > _PSD_TOL:
            raise ValidationError(f"density matrix negative eigenvalue {-neg:g}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(0.5 * (self.entries + self.entries.conj().T))


def _admitted_state(entries: np.ndarray) -> DensityMatrix:
    """A state on ``entries``, a read-only Hermitian matrix that
    :func:`_check_flow` has checked: neither checked nor copied again."""
    state = object.__new__(DensityMatrix)
    object.__setattr__(state, "entries", entries)
    return state


def _check_flow(stack: np.ndarray, what: str, fail_tol: float,
                warn_tol: float = math.inf,
                times: Optional[np.ndarray] = None,
                stacklevel: int = 1) -> np.ndarray:
    """The read-only Hermitian parts of a stack (k, d, d) of propagated
    matrices, once their defects are checked.

    Raises NumericalInstabilityError at the first matrix whose worst
    defect exceeds ``fail_tol`` and warns once if any exceeds ``warn_tol``.
    With ``times`` the stack holds steps 1..k of a trajectory at those
    times, and the messages name the step.  ``stacklevel`` is the one the
    caller would pass to :func:`warnings.warn`.
    """
    defects, sym = _defects_and_hermitian_part(stack)
    worst = np.max(defects, axis=0)

    def where(k):
        return "" if times is None else f" at step {k + 1} (t = {times[k]:g})"

    failed = np.flatnonzero(worst > fail_tol)
    if failed.size:
        k = failed[0]
        raise NumericalInstabilityError(
            f"{what} defect {worst[k]:g}{where(k)} exceeds {fail_tol:g}")
    warned = np.flatnonzero(worst > warn_tol)
    if warned.size:
        k = warned[0]
        count = "" if times is None else f" ({warned.size} steps above it)"
        warnings.warn(
            f"{what} defect {worst[k]:g}{where(k)} above {warn_tol:g}{count}",
            RuntimeWarning, stacklevel=stacklevel + 1)
    sym.setflags(write=False)
    return sym


def _admit_flow(entries: np.ndarray, what: str, fail_tol: float,
                warn_tol: float = math.inf) -> DensityMatrix:
    """The state on one propagated matrix, its defects bounded by the route's
    ``fail_tol`` (:func:`_check_flow`); a warning names the route's caller."""
    return _admitted_state(_check_flow(entries[None], what, fail_tol,
                                       warn_tol, stacklevel=3)[0])


def plus_state() -> DensityMatrix:
    """The qubit state |+><+| with maximal coherence rho_01 = 1/2."""
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


@dataclass(frozen=True)
class GKSLGenerator:
    """A GKSL generator: Hermitian Hamiltonian plus weighted jump channels."""

    hamiltonian: np.ndarray
    channels: Tuple[Tuple[np.ndarray, float], ...] = ()

    def __post_init__(self) -> None:
        H = _hermitian(self.hamiltonian, "hamiltonian")
        d = H.shape[0]
        try:
            channels = [(jump, rate) for jump, rate in self.channels]
        except (TypeError, ValueError):  # not a sequence of pairs
            raise ValidationError(
                "channels must be a sequence of (jump operator, rate) pairs"
            ) from None
        norm: List[Tuple[np.ndarray, float]] = []
        for jump, rate in channels:
            L = _as_square_complex(jump, "jump operator")
            if L.shape[0] != d:
                raise ValidationError("jump operator dimension mismatch")
            rate = _nonneg_float(rate, "channel rates", err=ValidationError)
            L = L.copy()
            L.setflags(write=False)
            norm.append((L, rate))
        H = H.copy()
        H.setflags(write=False)
        object.__setattr__(self, "hamiltonian", H)
        object.__setattr__(self, "channels", tuple(norm))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class Superoperator:
    """A d^2 x d^2 matrix acting on row-major vectorized states."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        d = _count(self.dim, "dim", 1)
        M = _as_square_complex(self.matrix, "superoperator matrix")
        if M.shape[0] != d * d:
            raise ValidationError("superoperator matrix must be d^2 x d^2")
        M = M.copy()
        M.setflags(write=False)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "matrix", M)

    def trace_form_defect(self) -> float:
        """Norm of vec(I)^T M — zero iff the flow preserves trace exactly."""
        iv = vec(np.eye(self.dim))
        scale = max(1.0, float(np.max(np.abs(self.matrix))))
        return float(np.max(np.abs(iv @ self.matrix))) / scale


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two d x d matrices, as one broadcast product."""
    d = a.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d * d, d * d)


def build_superoperator(gen: GKSLGenerator) -> Superoperator:
    """Assemble the d^2 x d^2 matrix of the GKSL generator (row-major vec)."""
    d = _instance(gen, GKSLGenerator, "build_superoperator gen").dim
    eye = np.eye(d, dtype=complex)
    H = gen.hamiltonian
    M = -1.0j * (_kron(H, eye) - _kron(eye, H.T))
    for L, rate in gen.channels:
        if rate == 0.0:
            continue
        LdL = L.conj().T @ L
        M = M + rate * (
            _kron(L, L.conj())
            - 0.5 * (_kron(LdL, eye) + _kron(eye, LdL.T))
        )
    return Superoperator(d, M)


def _flow_operator(flow: Union[GKSLGenerator, Superoperator], init):
    """(M, vec(init)) for the flow of ``init`` under a generator or its
    superoperator, once ``flow`` is checked to be one of the two and ``init``
    a DensityMatrix of the flow's dimension."""
    if not isinstance(flow, (GKSLGenerator, Superoperator)):
        raise ValidationError(
            "generator must be a GKSLGenerator or a Superoperator")
    if not isinstance(init, DensityMatrix):
        raise ValidationError("init must be a DensityMatrix")
    if init.dim != flow.dim:
        raise ValidationError("initial state and generator dimensions differ")
    if isinstance(flow, GKSLGenerator):
        flow = build_superoperator(flow)
    return flow.matrix, vec(init.entries)


def _eigenbasis(M: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Eigenvalues and eigenvector matrix V of M = V diag(evals) V^(-1).

    None if V's condition number is not finite or reaches _EIG_COND_MAX:
    M is then defective or too close to it for V^(-1) to be trusted.
    """
    evals, V = np.linalg.eig(M)
    cond = np.linalg.cond(V)
    if not math.isfinite(cond) or cond >= _EIG_COND_MAX:
        return None
    return evals, V


def dephasing_qubit(epsilon: float, gamma: float) -> GKSLGenerator:
    """Pure-dephasing qubit: H = (epsilon/2) sigma_z, jump sigma_z at rate gamma.

    The coherence u = rho_10 then obeys du/dt = (i epsilon - 2 gamma) u; with
    gamma = 0 this is the closed (Liouville) qubit.
    """
    gamma = _nonneg_float(gamma, "gamma")
    H = 0.5 * _finite_float(epsilon, "dephasing_qubit epsilon") * PAULI_Z
    channels = ((PAULI_Z, gamma),) if gamma > 0.0 else ()
    return GKSLGenerator(H, channels)


def semigroup_apply(
    superop: Superoperator, u: float, rho: DensityMatrix
) -> DensityMatrix:
    """Propagate ``rho`` by ``expm(u M)`` and re-validate the result."""
    from scipy.linalg import expm

    u = _nonneg_float(u, "semigroup time u")
    M, rho0 = _flow_operator(superop, rho)
    if u == 0.0:
        return rho
    out = unvec(expm(u * M) @ rho0, superop.dim)
    return _admit_flow(out, "propagated state", _FLOW_FAIL_TOL,
                       _FLOW_WARN_TOL)


def cptp_diagnostics(
    superop: Superoperator, u: Optional[float] = None
) -> Tuple[float, float]:
    """Trace-preservation defect and minimum Choi eigenvalue of expm(u M).

    With ``u = None`` the superoperator matrix is diagnosed directly as the
    map (for maps assembled outside the semigroup, e.g. subordinated flows).
    The map is CPTP iff the defect vanishes and the Choi matrix is PSD.
    Restricted to dim <= 8 (the Choi matrix is d^2 x d^2).
    """
    if not isinstance(superop, Superoperator):
        raise ValidationError("cptp_diagnostics needs a Superoperator")
    d = superop.dim
    if d > 8:
        raise ValidationError("cptp_diagnostics supports dim <= 8")
    if u is None:
        phi = superop.matrix
    else:
        u = _nonneg_float(u, "diagnostic time u")
        from scipy.linalg import expm

        phi = expm(u * superop.matrix)
    # Trace defect: tr Phi(E_ij) must equal delta_ij.
    traces = vec(np.eye(d)) @ phi
    trace_defect = float(np.max(np.abs(traces - vec(np.eye(d)))))
    # Choi matrix: C[(i,k),(j,l)] = <k| Phi(|i><j|) |l> = Phi[(k,l),(i,j)].
    choi = phi.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    choi = 0.5 * (choi + choi.conj().T)
    min_choi_eig = float(np.min(np.linalg.eigvalsh(choi)))
    return trace_defect, min_choi_eig


# ----------------------------------------------------------------------------
# JSON import/export: complex entries as [re, im] pairs, row-major order.
# ----------------------------------------------------------------------------

def _matrix_to_pairs(m: np.ndarray) -> List[List[float]]:
    flat = np.asarray(m, dtype=complex).ravel(order="C")
    return [[float(z.real), float(z.imag)] for z in flat]


def _pairs_to_matrix(pairs: Sequence[Sequence[float]], dim: int,
                     name: str) -> np.ndarray:
    try:
        arr = np.asarray(pairs)
        ok = arr.dtype.kind in "iuf" and arr.shape == (dim * dim, 2) \
            and not _holds_bool(pairs)
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise ValidationError(
            f"{name} must be a flat row-major list of {dim * dim} [re, im] "
            f"pairs of numbers"
        )
    return (arr[:, 0] + 1.0j * arr[:, 1]).reshape(dim, dim)


def density_to_json(rho: DensityMatrix) -> dict:
    _instance(rho, DensityMatrix, "density_to_json rho")
    return {"dim": rho.dim, "entries": _matrix_to_pairs(rho.entries)}


def density_from_json(data: dict) -> DensityMatrix:
    try:
        dim = _count(data["dim"], "dim", 1)
        pairs = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed density-matrix JSON: {exc}") from exc
    return DensityMatrix(_pairs_to_matrix(pairs, dim, "entries"))


def generator_to_json(gen: GKSLGenerator) -> dict:
    _instance(gen, GKSLGenerator, "generator_to_json gen")
    return {
        "dim": gen.dim,
        "hamiltonian": _matrix_to_pairs(gen.hamiltonian),
        "channels": [
            {"jump": _matrix_to_pairs(L), "rate": rate}
            for L, rate in gen.channels
        ],
    }


def generator_from_json(data: dict) -> GKSLGenerator:
    try:
        dim = _count(data["dim"], "dim", 1)
        ham = _pairs_to_matrix(data["hamiltonian"], dim, "hamiltonian")
        channels = tuple(
            (_pairs_to_matrix(ch["jump"], dim, "jump"), ch["rate"])
            for ch in data.get("channels", [])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed generator JSON: {exc}") from exc
    return GKSLGenerator(ham, channels)
