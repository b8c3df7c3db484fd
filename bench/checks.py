"""Output checks for the benchmark's jobs.

Artifacts are compared with the committed ``demos/output/`` files column by
column at a stated tolerance, never byte for byte: a rerun on another BLAS
or library version already differs in the last ulp (792 rows of
``markov_vs_exact.csv`` and 3 rows of ``subordinate_mc.csv`` on numpy 2.4 /
OpenBLAS).  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# Default tolerance for a CLI artifact against its reference: far above
# last-ulp drift, far below any change in the physics.
RTOL, ATOL = 1e-9, 1e-12
# Fitted parameters come out of a Nelder-Mead search stopped at a simplex
# diameter of 1e-6; the fitted curve inherits that.
FIT_RTOL, FIT_ATOL = 1e-6, 1e-9
# Dense and SOE histories agree to ~1e-9 on the demo trajectory; gate 15
# bounds their difference by 1e-5.
SOE_DENSE_ATOL = 1e-8
PAIR_ATOL = 1e-5
# |mc_mean - obs_quad| <= MC_SIGMAS * mc_stderr on every row, any seed.
MC_SIGMAS = 5.0
# Comment keys that record inputs rather than results.
_UNCHECKED_COMMENTS = {"config_digest", "artifact"}


def read_csv(path: Path) -> Tuple[Dict[str, str], List[str], List[List[str]]]:
    """Split an artifact into ``# key: value`` comments, header and rows."""
    comments: Dict[str, str] = {}
    body = []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(":")
                comments[key.strip()] = value.strip()
            else:
                body.append(line)
    rows = list(csv.reader(body))
    if not rows:
        return comments, [], []
    return comments, rows[0], rows[1:]


def _as_float(cells: Sequence[str]) -> Optional[np.ndarray]:
    try:
        return np.array([float(c) if c != "" else math.nan for c in cells])
    except ValueError:
        return None


def _close(name: str, got: Sequence[str], want: Sequence[str],
           rtol: float, atol: float) -> List[str]:
    g, w = _as_float(got), _as_float(want)
    if g is None or w is None:
        bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    else:
        ok = np.isclose(g, w, rtol=rtol, atol=atol, equal_nan=True)
        bad = list(np.flatnonzero(~ok))
    if not bad:
        return []
    i = int(bad[0])
    return [f"{name}: {len(bad)} value(s) off reference (rtol={rtol:g}, "
            f"atol={atol:g}), first at row {i}: {got[i]} vs {want[i]}"]


def compare_csv(path: Path, reference: Path, *, rtol: float = RTOL,
                atol: float = ATOL, columns: Optional[Sequence[str]] = None,
                tolerances: Optional[Dict[str, Tuple[float, float]]] = None
                ) -> List[str]:
    """Compare ``columns`` (default: all) and numeric comments of two CSVs.

    ``tolerances`` overrides ``(rtol, atol)`` for single columns.
    """
    if not path.exists():
        return [f"{path.name}: missing"]
    got_c, got_h, got_rows = read_csv(path)
    want_c, want_h, want_rows = read_csv(reference)
    label = path.name
    if got_h != want_h:
        return [f"{label}: header {got_h} != reference {want_h}"]
    if len(got_rows) != len(want_rows):
        return [f"{label}: {len(got_rows)} rows != reference {len(want_rows)}"]
    problems = []
    for key in sorted(set(got_c) | set(want_c)):
        if key in _UNCHECKED_COMMENTS:
            continue
        if key not in got_c or key not in want_c:
            problems.append(f"{label}: comment {key!r} missing on one side")
            continue
        problems += _close(f"{label} # {key}", [got_c[key]], [want_c[key]],
                           rtol, atol)
    tolerances = tolerances or {}
    for col in (columns or got_h):
        j = got_h.index(col)
        r, a = tolerances.get(col, (rtol, atol))
        problems += _close(f"{label}:{col}", [row[j] for row in got_rows],
                           [row[j] for row in want_rows], r, a)
    return problems


def check_fit_json(path: Path, reference: Path) -> List[str]:
    """Fitted ``(alpha, lambda)`` and ``u_inf`` match; the fit converged."""
    if not path.exists():
        return [f"{path.name}: missing"]
    got = json.loads(path.read_text(encoding="utf-8"))
    want = json.loads(reference.read_text(encoding="utf-8"))
    problems = []
    if got.get("converged") is not True:
        problems.append(f"{path.name}: converged = {got.get('converged')!r}")
    for key in ("alpha", "lambda", "u_inf"):
        if key not in want:
            continue
        if key not in got or not math.isclose(got[key], want[key],
                                              rel_tol=FIT_RTOL, abs_tol=0.0):
            problems.append(f"{path.name}: {key} = {got.get(key)!r}, "
                            f"reference {want[key]!r} (rtol={FIT_RTOL:g})")
    return problems


def check_monte_carlo(path: Path, n_samples: int, seed: int) -> List[str]:
    """Statistical check of the Monte-Carlo columns of a subordinate CSV.

    Row ``i`` must record ``n_samples`` and seed ``seed + i`` (row 0, at
    t = 0, records ``seed``) and satisfy
    ``|mc_mean - obs_quad| <= MC_SIGMAS * mc_stderr``.  This holds for every
    seed, unlike a comparison with the reference's Monte-Carlo values.
    """
    if not path.exists():
        return [f"{path.name}: missing"]
    _, header, rows = read_csv(path)
    col = {name: header.index(name) for name in
           ("t", "obs_quad", "mc_mean", "mc_stderr", "n_samples", "seed")}
    problems = []
    for i, row in enumerate(rows):
        t, quad, mean, err = (float(row[col[k]]) for k in
                              ("t", "obs_quad", "mc_mean", "mc_stderr"))
        want_seed = seed if t == 0.0 else seed + i
        if int(row[col["n_samples"]]) != n_samples:
            problems.append(f"{path.name} row {i}: n_samples "
                            f"{row[col['n_samples']]} != {n_samples}")
        if int(row[col["seed"]]) != want_seed:
            problems.append(f"{path.name} row {i}: seed {row[col['seed']]} "
                            f"!= {want_seed}")
        if t > 0.0 and not err > 0.0:
            problems.append(f"{path.name} row {i}: mc_stderr {err!r} <= 0")
        if not abs(mean - quad) <= MC_SIGMAS * err:
            problems.append(f"{path.name} row {i}: |mc_mean - obs_quad| = "
                            f"{abs(mean - quad):.3g} > {MC_SIGMAS:g} * "
                            f"{err:.3g}")
    return problems


def check_solve_pair(path: Path, expected_final: float) -> List[str]:
    """The scalar dense/SOE pair agrees to PAIR_ATOL and with E_a(-t^a)."""
    if not path.exists():
        return [f"{path.name}: missing"]
    dense, soe = np.load(path)
    problems = []
    dev = float(np.max(np.abs(dense - soe)))
    if not dev <= PAIR_ATOL:
        problems.append(f"{path.name}: max |dense - soe| = {dev:.3g} > "
                        f"{PAIR_ATOL:g}")
    for label, final in (("dense", dense[-1]), ("soe", soe[-1])):
        err = abs(complex(final) - expected_final)
        if not err <= PAIR_ATOL:
            problems.append(f"{path.name}: {label} final {final!r} is "
                            f"{err:.3g} from E_a(-t^a) = {expected_final!r}")
    return problems
