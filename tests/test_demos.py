"""Golden-output check: rerun a demo config and compare with demos/output/.

Artifacts are compared column by column at a stated tolerance, never byte
for byte: a rerun on another BLAS or library version already differs from
the committed files in the last ulp.  Monte-Carlo columns are checked
statistically against the deterministic quadrature column.
"""

import csv
from pathlib import Path

import numpy as np

from fracdyn.cli import main

DEMOS = Path(__file__).resolve().parents[1] / "demos"
RTOL, ATOL = 1e-9, 1e-12
MC_SIGMAS = 5.0


def read_columns(path):
    """The non-comment body of a CLI artifact as ``{column: float array}``."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(row[i]) for row in body])
            for i, name in enumerate(header)}


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

    got_div = read_columns(tmp_path / "subordinate_mc_divisibility.csv")
    want_div = read_columns(DEMOS / "output" / "subordinate_mc_divisibility.csv")
    assert got_div.keys() == want_div.keys()
    for name in want_div:
        np.testing.assert_allclose(got_div[name], want_div[name], rtol=RTOL,
                                   atol=ATOL, err_msg=name)
