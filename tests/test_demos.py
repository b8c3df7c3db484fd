"""Golden-output check: rerun a demo config and compare with demos/output/.

Artifacts are compared column by column at a stated tolerance, never byte
for byte: a rerun on another BLAS or library version already differs from
the committed files in the last ulp.  Monte-Carlo columns are checked
statistically against the deterministic quadrature column.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracdyn.cli import main

DEMOS = Path(__file__).resolve().parents[1] / "demos"
RTOL, ATOL = 1e-9, 1e-12
# Fitted parameters come out of a Nelder-Mead search stopped at a simplex
# diameter of 1e-6; the fitted curve inherits that.
FIT_RTOL, FIT_ATOL = 1e-6, 1e-9
MC_SIGMAS = 5.0
# Dense and SOE histories agree to 3.3e-11 on the demo trajectory (SOE
# tolerance 1e-8).
SOE_DENSE_ATOL = 1e-8


def read_columns(path):
    """The non-comment body of a CLI artifact as ``{column: float array}``."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(row[i] or "nan") for row in body])
            for i, name in enumerate(header)}


def run_demo(tmp_path, stem, **changes):
    """Run a demo config, with top-level keys replaced by ``changes``,
    through the CLI; the artifact's columns."""
    config = json.loads((DEMOS / "configs" / f"{stem}.json").read_text())
    config.update(changes)
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / f"{stem}.csv"
    assert main([config["command"], "--config", str(path),
                 "--out", str(out)]) == 0
    return read_columns(out)


def read_comment(path, key):
    """The value of the ``# key: value`` comment line of a CLI artifact."""
    prefix = f"# {key}: "
    with open(path, encoding="utf-8") as fh:
        values = [line[len(prefix):] for line in fh if line.startswith(prefix)]
    assert len(values) == 1, (path, key)
    return float(values[0])


def assert_columns_close(got, want, **tolerances):
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_allclose(got[name], want[name], err_msg=name,
                                   **tolerances)


def test_subordinate_mc_matches_committed_output(tmp_path):
    out = tmp_path / "subordinate_mc.csv"
    code = main(["subordinate",
                 "--config", str(DEMOS / "configs" / "subordinate_mc.json"),
                 "--out", str(out), "--threads", "2"])
    assert code == 0

    got = read_columns(out)
    want = read_columns(DEMOS / "output" / "subordinate_mc.csv")
    for name in ("t", "obs_quad", "obs_ml"):
        np.testing.assert_allclose(got[name], want[name], rtol=RTOL,
                                   atol=ATOL, err_msg=name)
    dev = np.abs(got["mc_mean"] - got["obs_quad"])
    assert np.all(dev <= MC_SIGMAS * got["mc_stderr"]), dev / got["mc_stderr"]

    assert_columns_close(
        read_columns(tmp_path / "subordinate_mc_divisibility.csv"),
        read_columns(DEMOS / "output" / "subordinate_mc_divisibility.csv"),
        rtol=RTOL, atol=ATOL)


def test_solver_convergence_matches_committed_output(tmp_path):
    assert_columns_close(
        run_demo(tmp_path, "solver_convergence"),
        read_columns(DEMOS / "output" / "solver_convergence.csv"),
        rtol=RTOL, atol=ATOL)


def test_solver_soe_trajectory_matches_committed_output(tmp_path):
    assert_columns_close(
        run_demo(tmp_path, "solver_soe_trajectory"),
        read_columns(DEMOS / "output" / "solver_soe_trajectory.csv"),
        rtol=RTOL, atol=ATOL)


def test_dense_trajectory_matches_committed_soe_output(tmp_path):
    assert_columns_close(
        run_demo(tmp_path, "solver_soe_trajectory", history="dense"),
        read_columns(DEMOS / "output" / "solver_soe_trajectory.csv"),
        rtol=0.0, atol=SOE_DENSE_ATOL)


@pytest.mark.parametrize("stem, comment", [
    ("exact_short_time", "amplitude_prefactor"),
    ("exact_ohmic_tail", "amplitude_prefactor"),
    ("exact_super_ohmic_plateau", "amplitude_prefactor"),
    ("markov_vs_exact", "gamma"),
])
def test_bath_demo_matches_committed_output(tmp_path, stem, comment):
    want = DEMOS / "output" / f"{stem}.csv"
    assert_columns_close(run_demo(tmp_path, stem), read_columns(want),
                         rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(read_comment(tmp_path / f"{stem}.csv", comment),
                               read_comment(want, comment),
                               rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("stem", ["fracfit_sub_ohmic", "fracfit_super_ohmic"])
def test_fit_demo_matches_committed_output(tmp_path, stem):
    got = run_demo(tmp_path, stem)
    want = read_columns(DEMOS / "output" / f"{stem}.csv")
    assert got.keys() == want.keys()
    for name in want:
        fitted = name in ("abs_u_fit", "deviation")
        np.testing.assert_allclose(
            got[name], want[name], err_msg=name,
            rtol=FIT_RTOL if fitted else RTOL,
            atol=FIT_ATOL if fitted else ATOL)

    got_fit = json.loads((tmp_path / f"{stem}.json").read_text())
    want_fit = json.loads((DEMOS / "output" / f"{stem}.json").read_text())
    assert got_fit["converged"] is True
    for key in ("alpha", "lambda", "u_inf"):
        assert (key in got_fit) == (key in want_fit), key
        if key in want_fit:
            np.testing.assert_allclose(got_fit[key], want_fit[key],
                                       rtol=FIT_RTOL, atol=0.0, err_msg=key)


def test_library_tour_runs():
    # The tour calls fam_solve, subordinated_propagate, trajectory_estimate
    # and fit_fractional through the public API.
    src = str(DEMOS.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    done = subprocess.run([sys.executable, str(DEMOS / "library_tour.py")],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    for header in ("1. Special functions",
                   "2. Fractional master equation",
                   "3. Subordination",
                   "4. Non-divisibility witness",
                   "5. Fitting a fractional law"):
        assert header in done.stdout
