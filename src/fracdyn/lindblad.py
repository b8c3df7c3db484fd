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
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, NumericalInstabilityError, ValidationError

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
    return np.asarray(v, dtype=complex).reshape(dim, dim, order="C")


def _as_square_complex(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidationError(f"{name} must have finite entries")
    return arr


def _density_defects(
    entries: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermiticity, trace and negative-eigenvalue defects of a stack.

    ``entries`` has shape (..., d, d); each defect is an array over the
    leading axes (0-d for one matrix).  A matrix with a non-finite entry has
    all three defects inf.
    """
    finite = np.all(np.isfinite(entries), axis=(-2, -1))
    if not np.all(finite):
        # eigvalsh rejects non-finite input: check a zero stand-in instead.
        stand_in = np.where(finite[..., None, None], entries, 0.0)
        return tuple(np.where(finite, x, np.inf)
                     for x in _density_defects(stand_in))
    adj = np.conj(np.swapaxes(entries, -1, -2))
    herm = np.max(np.abs(entries - adj), axis=(-2, -1))
    trace = np.abs(np.trace(entries, axis1=-2, axis2=-1) - 1.0)
    neg = np.maximum(0.0, -np.linalg.eigvalsh(0.5 * (entries + adj))[..., 0])
    return herm, trace, neg


@dataclass(frozen=True)
class DensityMatrix:
    """A quantum state: Hermitian, unit-trace, positive-semidefinite matrix."""

    entries: np.ndarray
    herm_tol: float = _HERM_TOL
    trace_tol: float = _TRACE_TOL
    psd_tol: float = _PSD_TOL

    def __post_init__(self) -> None:
        arr = _as_square_complex(self.entries, "density matrix")
        herm, trace, neg = (float(x) for x in _density_defects(arr))
        if herm > self.herm_tol:
            raise ValidationError(f"density matrix not Hermitian (defect {herm:g})")
        if trace > self.trace_tol:
            raise ValidationError(f"density matrix trace defect {trace:g}")
        if neg > self.psd_tol:
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
        sym = 0.5 * (self.entries + self.entries.conj().T)
        return np.linalg.eigvalsh(sym)


def _admit_states(stack: np.ndarray, tol: float) -> Tuple[DensityMatrix, ...]:
    """States holding the Hermitian parts of a stack (k, d, d).

    For matrices whose defects the caller has already bounded with
    :func:`_density_defects`: the states are not checked again, and each
    records ``tol`` as all three tolerances.
    """
    sym = 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))
    sym.setflags(write=False)
    states = []
    for entries in sym:
        state = object.__new__(DensityMatrix)
        vars(state).update(entries=entries, herm_tol=tol, trace_tol=tol,
                           psd_tol=tol)
        states.append(state)
    return tuple(states)


def _admit_flow(stack: np.ndarray, what: str, fail_tol: float,
                admit_tol: float, warn_tol: float = math.inf,
                times: Optional[np.ndarray] = None,
                stacklevel: int = 1) -> Tuple[DensityMatrix, ...]:
    """States from a stack (k, d, d) of propagated matrices.

    Raises NumericalInstabilityError at the first matrix whose worst
    defect exceeds ``fail_tol``, warns once if any exceeds ``warn_tol``,
    then admits the stack with ``admit_tol`` (roundoff accumulates along a
    flow).  With ``times`` the stack holds steps 1..k of a trajectory at
    those times, and the messages name the step.  ``stacklevel`` is the one
    the caller would pass to :func:`warnings.warn`.
    """
    worst = np.max(_density_defects(stack), axis=0)

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
    return _admit_states(stack, admit_tol)


def _nonneg_float(x, name: str, strict: bool = False) -> float:
    """``x`` as a float, finite and >= 0 (> 0 if ``strict``), else a
    DomainError that ``name`` opens (e.g. "time t")."""
    x = float(x)
    if not math.isfinite(x) or x < 0.0 or (strict and x == 0.0):
        raise DomainError(
            f"{name} must be finite and {'> 0' if strict else '>= 0'}")
    return x


def plus_state() -> DensityMatrix:
    """The qubit state |+><+| with maximal coherence rho_01 = 1/2."""
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


@dataclass(frozen=True)
class GKSLGenerator:
    """A GKSL generator: Hermitian Hamiltonian plus weighted jump channels."""

    hamiltonian: np.ndarray
    channels: Tuple[Tuple[np.ndarray, float], ...] = ()

    def __post_init__(self) -> None:
        H = _as_square_complex(self.hamiltonian, "hamiltonian")
        herm = float(np.max(np.abs(H - H.conj().T))) if H.size else 0.0
        if herm > _HERM_TOL:
            raise ValidationError(f"hamiltonian not Hermitian (defect {herm:g})")
        d = H.shape[0]
        norm: List[Tuple[np.ndarray, float]] = []
        for jump, rate in self.channels:
            L = _as_square_complex(jump, "jump operator")
            if L.shape[0] != d:
                raise ValidationError("jump operator dimension mismatch")
            rate = float(rate)
            if not math.isfinite(rate) or rate < 0.0:
                raise ValidationError("channel rates must be finite and >= 0")
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
        d = int(self.dim)
        if d < 1:
            raise ValidationError("dim must be >= 1")
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


def build_superoperator(gen: GKSLGenerator) -> Superoperator:
    """Assemble the d^2 x d^2 matrix of the GKSL generator (row-major vec)."""
    d = gen.dim
    eye = np.eye(d, dtype=complex)
    H = gen.hamiltonian
    M = -1.0j * (np.kron(H, eye) - np.kron(eye, H.T))
    for L, rate in gen.channels:
        if rate == 0.0:
            continue
        LdL = L.conj().T @ L
        M = M + rate * (
            np.kron(L, L.conj())
            - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T))
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
    H = 0.5 * float(epsilon) * PAULI_Z
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
    return _admit_flow(out[None], "propagated state", _FLOW_FAIL_TOL,
                       10.0 * _FLOW_FAIL_TOL, warn_tol=_FLOW_WARN_TOL,
                       stacklevel=2)[0]


def cptp_diagnostics(
    superop: Superoperator, u: Optional[float] = None
) -> Tuple[float, float]:
    """Trace-preservation defect and minimum Choi eigenvalue of expm(u M).

    With ``u = None`` the superoperator matrix is diagnosed directly as the
    map (for maps assembled outside the semigroup, e.g. subordinated flows).
    The map is CPTP iff the defect vanishes and the Choi matrix is PSD.
    Restricted to dim <= 8 (the Choi matrix is d^2 x d^2).
    """
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
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape != (dim * dim, 2):
        raise ValidationError(
            f"{name} must be a flat row-major list of {dim * dim} [re, im] pairs"
        )
    return (arr[:, 0] + 1.0j * arr[:, 1]).reshape(dim, dim)


def density_to_json(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "entries": _matrix_to_pairs(rho.entries)}


def density_from_json(data: dict, **tolerances) -> DensityMatrix:
    try:
        dim = int(data["dim"])
        pairs = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed density-matrix JSON: {exc}") from exc
    return DensityMatrix(_pairs_to_matrix(pairs, dim, "entries"), **tolerances)


def generator_to_json(gen: GKSLGenerator) -> dict:
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
        dim = int(data["dim"])
        ham = _pairs_to_matrix(data["hamiltonian"], dim, "hamiltonian")
        channels = tuple(
            (_pairs_to_matrix(ch["jump"], dim, "jump"), float(ch["rate"]))
            for ch in data.get("channels", [])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed generator JSON: {exc}") from exc
    return GKSLGenerator(ham, channels)
