"""End-to-end tests for the reproduction CLI.

Commands are exercised in-process through ``main`` so that exit codes,
stderr messages, and artifact bytes can be asserted directly; subprocess
tests cover the console script and the scipy imports deferred to first use.
"""

import csv
import json
import math
import os
import subprocess
import sys

from pathlib import Path

import numpy as np
import pytest

from fracdyn import cli
from fracdyn.cli import main
from fracdyn.errors import AccuracyError
from fracdyn.fitting import FitResult
from fracdyn.fracsolve import fam_solve
from fracdyn.lindblad import generator_from_json, plus_state
from fracdyn.specfun import mittag_leffler
from fracdyn.spinboson import BathSpec, dephasing_Q
from fracdyn.subordination import _clock_rule

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(__file__).resolve().parents[1] / "src"
DEPHASING_GEN = {
    "dim": 2,
    "hamiltonian": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    "channels": [
        {"jump": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
         "rate": 1.0}
    ],
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, doc, out_name="out.csv", extra=()):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / out_name
    code = main([doc["command"], "--config", cfg, "--out", str(out), *extra])
    return code, out


def read_csv(path):
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


def column(header, rows, name):
    idx = header.index(name)
    return np.array([float(r[idx]) for r in rows])


class TestConfigValidation:
    def test_unknown_key_reports_path(self, tmp_path, capsys):
        doc = {"command": "exact",
               "bath": {"eta": 1.0, "chi": 0.5, "bogus": 1},
               "grid": {"t_min": 0.1, "t_max": 1.0, "n_points": 3},
               "regime": "short_time"}
        code, _ = run(tmp_path, doc)
        assert code == 2
        assert "$.bath" in capsys.readouterr().err

    def test_missing_required(self, tmp_path, capsys):
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 0.5},
               "regime": "short_time"}
        code, _ = run(tmp_path, doc)
        assert code == 2
        assert "grid" in capsys.readouterr().err

    def test_unknown_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"command": "frobnicate"})
        code = main(["exact", "--config", cfg, "--out",
                     str(tmp_path / "o.csv")])
        assert code == 2
        assert "command" in capsys.readouterr().err

    def test_command_mismatch(self, tmp_path, capsys):
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 0.1, "t_max": 1.0, "n_points": 3},
               "regime": "short_time"}
        cfg = write_config(tmp_path, doc)
        code = main(["markov", "--config", cfg, "--out",
                     str(tmp_path / "o.csv")])
        assert code == 2
        assert "subcommand" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["exact", "--config", str(path), "--out",
                     str(tmp_path / "o.csv")])
        assert code == 2
        assert "JSON" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        code = main(["exact", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_seed_flag_rejected_outside_subordinate(self, tmp_path, capsys):
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 0.1, "t_max": 1.0, "n_points": 3},
               "regime": "short_time"}
        code, _ = run(tmp_path, doc, extra=("--seed", "3"))
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_zero_threads_rejected(self, tmp_path):
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 0.1, "t_max": 1.0, "n_points": 3},
               "regime": "short_time"}
        code, _ = run(tmp_path, doc, extra=("--threads", "0"))
        assert code == 2

    def test_degenerate_grid_rejected(self, tmp_path):
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 1.0, "t_max": 1.0, "n_points": 3},
               "regime": "short_time"}
        assert run(tmp_path, doc)[0] == 2

    def test_log_grid_needs_positive_start(self, tmp_path):
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 0.0, "t_max": 1.0, "n_points": 3,
                        "spacing": "log"},
               "regime": "short_time"}
        assert run(tmp_path, doc)[0] == 2

    def test_ohmic_asymptote_rejects_t0(self, tmp_path):
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 1.0},
               "grid": {"t_min": 0.0, "t_max": 10.0, "n_points": 5},
               "regime": "ohmic"}
        assert run(tmp_path, doc)[0] == 2

    def test_negative_eta_rejected(self, tmp_path):
        doc = {"command": "exact", "bath": {"eta": -1.0, "chi": 0.5},
               "grid": {"t_min": 0.1, "t_max": 1.0, "n_points": 3},
               "regime": "short_time"}
        assert run(tmp_path, doc)[0] == 2

    def test_alpha_above_one_rejected(self, tmp_path):
        doc = {"command": "subordinate", "alpha": 1.2,
               "grid": {"t_min": 0.5, "t_max": 1.0, "n_points": 2},
               "n_samples": 10}
        assert run(tmp_path, doc)[0] == 2

    def test_reversed_window_rejected(self, tmp_path):
        doc = {"command": "fracfit", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 0.0, "t_max": 50.0, "n_points": 101},
               "window": {"t_start": 20.0, "t_end": 2.0}}
        assert run(tmp_path, doc)[0] == 2

    def test_finite_beta_accepted(self, tmp_path):
        doc = {"command": "exact",
               "bath": {"eta": 1.0, "chi": 0.5, "beta": 2.0},
               "grid": {"t_min": 0.1, "t_max": 1.0, "n_points": 3},
               "regime": "short_time"}
        assert run(tmp_path, doc)[0] == 0


class TestExact:
    def test_short_time_columns(self, tmp_path):
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 1e-3, "t_max": 1e-2, "n_points": 9,
                        "spacing": "log"},
               "regime": "short_time"}
        code, out = run(tmp_path, doc)
        assert code == 0
        comments, header, rows = read_csv(out)
        assert header == ["t", "Q", "absu", "Q_asym", "absu_asym"]
        assert any("config_digest" in c for c in comments)
        assert any("artifact: fracdyn" in c for c in comments)
        bath = BathSpec(1.0, 0.5)
        ts = column(header, rows, "t")
        qs = column(header, rows, "Q")
        absu = column(header, rows, "absu")
        for t, q, u in zip(ts, qs, absu):
            assert q == pytest.approx(dephasing_Q(bath, t), abs=1e-12)
            assert u == pytest.approx(math.exp(-q), abs=1e-12)
        pref = next(float(c.split(":")[1]) for c in comments
                    if "amplitude_prefactor" in c)
        # In the pure quadratic regime the fitted amplitude recovers the
        # 2/pi prefactor the bare table form omits.
        assert pref == pytest.approx(2.0 / math.pi, abs=1e-3)

    def test_single_point_grid(self, tmp_path):
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 0.5, "t_max": 1.0, "n_points": 1},
               "regime": "short_time"}
        code, out = run(tmp_path, doc)
        assert code == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 1

    def test_super_ohmic_plateau(self, tmp_path):
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 1.5},
               "grid": {"t_min": 100.0, "t_max": 1000.0, "n_points": 5,
                        "spacing": "log"},
               "regime": "super_ohmic"}
        code, out = run(tmp_path, doc)
        assert code == 0
        comments, header, rows = read_csv(out)
        absu = column(header, rows, "absu")
        # |u(1000)| sits 2.5% above the plateau e^{-(2/pi)Gamma(1/2)}.
        assert absu[-1] == pytest.approx(0.33186, abs=2e-3)
        q_asym = column(header, rows, "Q_asym")
        assert np.ptp(q_asym) == pytest.approx(0.0, abs=1e-12)

    def test_regime_bath_mismatch(self, tmp_path):
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 1.5},
               "grid": {"t_min": 10.0, "t_max": 100.0, "n_points": 3},
               "regime": "sub_ohmic"}
        assert run(tmp_path, doc)[0] == 2

    @pytest.mark.parametrize("bath", [{"eta": 1.0, "chi": 180.0},
                                      {"eta": 1.0, "chi": 160.0, "beta": 1.0}])
    def test_gamma_overflow_is_config_error(self, tmp_path, capsys, bath):
        doc = {"command": "exact", "bath": bath,
               "grid": {"t_min": 0.1, "t_max": 1.0, "n_points": 3},
               "regime": "super_ohmic"}
        assert run(tmp_path, doc)[0] == 2
        assert f"chi = {bath['chi']:g}" in capsys.readouterr().err


class TestMarkov:
    def test_ohmic_pipeline(self, tmp_path):
        doc = {"command": "markov", "bath": {"eta": 1.0, "chi": 1.0},
               "grid": {"t_min": 0.0, "t_max": 200.0, "n_points": 801},
               "window": {"t_start": 2.0, "t_end": 60.0}}
        code, out = run(tmp_path, doc)
        assert code == 0
        comments, header, rows = read_csv(out)
        gamma = next(float(c.split(":")[1]) for c in comments
                     if c.startswith("# gamma"))
        assert gamma == pytest.approx(0.013556, abs=2e-4)
        dev_tcl = column(header, rows, "dev_tcl")
        dev_markov = column(header, rows, "dev_markov")
        assert dev_tcl.max() <= 1e-6
        assert dev_markov.max() > 0.05
        assert column(header, rows, "abs_u_markov")[0] == 1.0

    def test_empty_window(self, tmp_path):
        doc = {"command": "markov", "bath": {"eta": 1.0, "chi": 1.0},
               "grid": {"t_min": 0.0, "t_max": 200.0, "n_points": 801},
               "window": {"t_start": 150.0, "t_end": 151.0}}
        assert run(tmp_path, doc)[0] == 2


class TestFracfit:
    def test_super_ohmic_auto_plateau(self, tmp_path):
        doc = {"command": "fracfit", "bath": {"eta": 1.0, "chi": 1.5},
               "grid": {"t_min": 0.0, "t_max": 100.0, "n_points": 201},
               "window": {"t_start": 2.0, "t_end": 20.0},
               "plateau": "auto"}
        code, out = run(tmp_path, doc)
        assert code == 0
        doc_json = json.loads((tmp_path / "out.json").read_text())
        assert list(doc_json) == ["alpha", "lambda", "u_inf", "window",
                                  "rmse", "converged", "evaluations"]
        assert doc_json["u_inf"] == pytest.approx(
            math.exp(-2.0 / math.pi * math.gamma(0.5)), rel=1e-10)
        assert doc_json["converged"] is True
        _, header, rows = read_csv(out)
        dev = column(header, rows, "deviation")
        assert 0.05 < dev.max() < 0.25

    def test_plain_fit_omits_plateau(self, tmp_path):
        doc = {"command": "fracfit", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 0.0, "t_max": 60.0, "n_points": 121},
               "window": {"t_start": 2.0, "t_end": 40.0}}
        code, out = run(tmp_path, doc)
        assert code == 0
        doc_json = json.loads((tmp_path / "out.json").read_text())
        assert "u_inf" not in doc_json
        assert 0.5 < doc_json["alpha"] < 1.0

    def test_byte_identical_reruns(self, tmp_path):
        doc = {"command": "fracfit", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 0.0, "t_max": 60.0, "n_points": 121},
               "window": {"t_start": 2.0, "t_end": 40.0}}
        _, out1 = run(tmp_path, doc, out_name="a.csv")
        _, out2 = run(tmp_path, doc, out_name="b.csv")
        assert out1.read_bytes() == out2.read_bytes()
        assert ((tmp_path / "a.json").read_bytes()
                == (tmp_path / "b.json").read_bytes())

    def test_non_convergence_exit_code(self, tmp_path, monkeypatch, capsys):
        def fake_fit(target, window, plateau=None, bath=None, **kwargs):
            return FitResult(0.5, 1.0, window, 0.1, 10, False)

        monkeypatch.setattr("fracdyn.cli.fit_fractional", fake_fit)
        doc = {"command": "fracfit", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 0.0, "t_max": 60.0, "n_points": 121},
               "window": {"t_start": 2.0, "t_end": 40.0}}
        code, out = run(tmp_path, doc)
        assert code == 4
        assert out.exists() and (tmp_path / "out.json").exists()
        assert json.loads((tmp_path / "out.json").read_text())[
            "converged"] is False
        assert "converge" in capsys.readouterr().err


SUB_DOC = {"command": "subordinate", "alpha": 0.5, "gamma": 1.0,
           "grid": {"t_min": 0.0, "t_max": 2.0, "n_points": 5},
           "n_samples": 2000, "seed": 7}


class TestSubordinate:
    def test_route_agreement(self, tmp_path):
        code, out = run(tmp_path, SUB_DOC)
        assert code == 0
        _, header, rows = read_csv(out)
        quad = column(header, rows, "obs_quad")
        ml = column(header, rows, "obs_ml")
        mc = column(header, rows, "mc_mean")
        se = column(header, rows, "mc_stderr")
        assert np.max(np.abs(quad - ml)) <= 1e-9
        for i in range(1, len(rows)):
            assert abs(mc[i] - quad[i]) <= 5.0 * se[i]
        assert column(header, rows, "seed").tolist() == [7, 8, 9, 10, 11]
        assert np.all(column(header, rows, "n_samples") == 2000)

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        # Every run starts from an empty rule cache, even when the last run
        # left it full, and builds each of its two rules once whatever its
        # thread count: 4 rows x 2 levels are 2 builds and 6 reuses.
        outputs = []
        for name, threads in (("t1.csv", "1"), ("t4.csv", "4"),
                              ("cold2.csv", "2"), ("warm2.csv", "2")):
            _, out = run(tmp_path, SUB_DOC, out_name=name,
                         extra=("--threads", threads))
            info = _clock_rule.cache_info()
            assert (info.hits, info.misses) == (6, 2)
            outputs.append(out.read_bytes())
        assert outputs.count(outputs[0]) == len(outputs)

    def test_seed_override_changes_bytes(self, tmp_path):
        _, base = run(tmp_path, SUB_DOC, out_name="s0.csv")
        _, other = run(tmp_path, SUB_DOC, out_name="s1.csv",
                       extra=("--seed", "99"))
        assert base.read_bytes() != other.read_bytes()
        digest = [line for line in other.read_text().splitlines()
                  if "config_digest" in line]
        base_digest = [line for line in base.read_text().splitlines()
                       if "config_digest" in line]
        assert digest != base_digest

    def test_alpha_one_degenerate(self, tmp_path):
        doc = {"command": "subordinate", "alpha": 1.0,
               "grid": {"t_min": 0.5, "t_max": 1.5, "n_points": 3},
               "n_samples": 100, "seed": 3, "divisibility": {"lam": 1.0}}
        code, out = run(tmp_path, doc)
        assert code == 0
        _, header, rows = read_csv(out)
        assert np.max(np.abs(column(header, rows, "mc_mean")
                             - column(header, rows, "obs_ml"))) == 0.0
        assert np.all(column(header, rows, "mc_stderr") == 0.0)
        _, dh, drows = read_csv(tmp_path / "out_divisibility.csv")
        assert np.max(column(dh, drows, "defect")) <= 1e-12

    def test_precessing_demo_routes_agree(self, tmp_path):
        # Complex generator eigenvalues: the spectral route must match the
        # quadrature, not fail on series cancellation (exit 3).
        doc = json.loads(
            (DEMOS / "configs" / "subordinate_mc.json").read_text())
        doc["epsilon"] = 2.0
        code, out = run(tmp_path, doc)
        assert code == 0
        _, header, rows = read_csv(out)
        dev = np.abs(column(header, rows, "obs_ml")
                     - column(header, rows, "obs_quad"))
        assert np.max(dev) <= 1e-12

    def test_divisibility_witness_value(self, tmp_path):
        doc = {"command": "subordinate", "alpha": 0.5,
               "grid": {"t_min": 1.0, "t_max": 3.0, "n_points": 3},
               "n_samples": 10, "seed": 1, "divisibility": {"lam": 1.0}}
        code, out = run(tmp_path, doc)
        assert code == 0
        _, dh, drows = read_csv(tmp_path / "out_divisibility.csv")
        ts = column(dh, drows, "t")
        defect = column(dh, drows, "defect")
        at2 = defect[np.argmin(np.abs(ts - 2.0))]
        assert at2 == pytest.approx(0.1534, abs=2e-3)


class TestSolve:
    def test_scalar_oracle(self, tmp_path):
        doc = {"command": "solve", "generator": DEPHASING_GEN,
               "alpha": 0.5, "h": 0.01, "n_steps": 100}
        code, out = run(tmp_path, doc)
        assert code == 0
        _, header, rows = read_csv(out)
        re01 = column(header, rows, "re_01")
        exact = 0.5 * mittag_leffler(0.5, -2.0)
        assert re01[-1] == pytest.approx(exact, abs=2e-4)
        assert len(rows) == 101

    def test_alpha_one_semigroup(self, tmp_path):
        doc = {"command": "solve", "generator": DEPHASING_GEN,
               "alpha": 1.0, "h": 0.05, "n_steps": 20}
        code, out = run(tmp_path, doc)
        assert code == 0
        _, header, rows = read_csv(out)
        re01 = column(header, rows, "re_01")
        assert re01[-1] == pytest.approx(0.5 * math.exp(-2.0), abs=1e-3)

    def test_soe_matches_dense(self, tmp_path):
        base = {"command": "solve", "generator": DEPHASING_GEN,
                "alpha": 0.5, "h": 0.01, "n_steps": 200}
        _, dense = run(tmp_path, base, out_name="dense.csv")
        soe = dict(base, history="soe")
        _, compressed = run(tmp_path, soe, out_name="soe.csv")
        _, h1, r1 = read_csv(dense)
        _, h2, r2 = read_csv(compressed)
        last1 = np.array([float(x) for x in r1[-1]])
        last2 = np.array([float(x) for x in r2[-1]])
        assert np.max(np.abs(last1 - last2)) <= 1e-6

    def test_soe_tolerance_1e_10(self, tmp_path):
        doc = {"command": "solve", "generator": DEPHASING_GEN,
               "alpha": 0.5, "h": 0.01, "n_steps": 200, "history": "soe",
               "soe_tol": 1e-10}
        assert run(tmp_path, doc)[0] == 0

    def test_paper_printed_scheme_accepted(self, tmp_path):
        doc = {"command": "solve", "generator": DEPHASING_GEN,
               "alpha": 0.6, "h": 0.05, "n_steps": 20,
               "scheme": "paper_printed"}
        assert run(tmp_path, doc)[0] == 0

    def test_convergence_mode(self, tmp_path):
        doc = {"command": "solve", "generator": DEPHASING_GEN,
               "alpha": 0.6, "mode": "convergence",
               "h_values": [0.02, 0.01, 0.005]}
        code, out = run(tmp_path, doc)
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["h", "error", "order"]
        assert rows[0][2] == ""
        orders = [float(r[2]) for r in rows[1:]]
        assert all(p >= 1.35 for p in orders)

    @pytest.mark.parametrize("h_values, horizon", [
        ([0.01, 0.01], 1.0),
        ([5.0, 2.0], 1.0),  # both round to one step
    ])
    def test_convergence_mode_rejects_repeated_step_counts(
            self, tmp_path, capsys, h_values, horizon):
        doc = {"command": "solve", "generator": DEPHASING_GEN,
               "alpha": 0.6, "mode": "convergence", "horizon": horizon,
               "h_values": h_values}
        code, out = run(tmp_path, doc)
        assert code == 2
        assert "$.h_values" in capsys.readouterr().err
        assert not out.exists()

    def test_convergence_mode_zero_error_leaves_order_empty(self, tmp_path):
        # No Hamiltonian and no channels: the state never moves, and at
        # alpha = 1 every run reproduces the reference exactly.
        gen = {"dim": 2, "hamiltonian": [[0.0, 0.0]] * 4, "channels": []}
        doc = {"command": "solve", "generator": gen, "alpha": 1.0,
               "mode": "convergence", "h_values": [0.02, 0.01, 0.005]}
        code, out = run(tmp_path, doc)
        assert code == 0
        _, header, rows = read_csv(out)
        assert [r[1] for r in rows] == ["0.0"] * 3
        assert [r[2] for r in rows] == [""] * 3

    def test_convergence_mode_requires_h_values(self, tmp_path):
        doc = {"command": "solve", "generator": DEPHASING_GEN,
               "alpha": 0.6, "mode": "convergence"}
        assert run(tmp_path, doc)[0] == 2

    def test_trajectory_mode_requires_h(self, tmp_path):
        doc = {"command": "solve", "generator": DEPHASING_GEN,
               "alpha": 0.6}
        assert run(tmp_path, doc)[0] == 2

    def test_dim3_requires_init(self, tmp_path):
        gen3 = {"dim": 3,
                "hamiltonian": [[0.0, 0.0]] * 9,
                "channels": []}
        doc = {"command": "solve", "generator": gen3,
               "alpha": 0.6, "h": 0.1, "n_steps": 5}
        assert run(tmp_path, doc)[0] == 2
        entries = [[0.0, 0.0]] * 9
        entries[0] = [1.0, 0.0]
        doc["init"] = {"dim": 3, "entries": entries}
        code, out = run(tmp_path, doc, out_name="d3.csv")
        assert code == 0
        _, header, rows = read_csv(out)
        assert column(header, rows, "re_00").tolist() == [1.0] * 6


# The CSV cell text before the array emitter: str for strings, digits for
# Python and NumPy integers, repr(float(x)) for everything else.
def _reference_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


class TestCsvCells:
    def test_mixed_row_text(self, tmp_path):
        row = ("", 3, np.int64(-12), np.float64(0.1), -0.0, 5e-324,
               math.inf, 1e16, np.float64(-2.5e-7))
        path = tmp_path / "cells.csv"
        cli._emit_csv(path, "abc", [f"c{i}" for i in range(len(row))],
                      [row], extra_comments=["note: x"])
        lines = path.read_text().split("\n")
        assert lines[:3] == ["# config_digest: abc",
                             f"# artifact: fracdyn {cli.__version__}",
                             "# note: x"]
        assert lines[-2] == ",".join(_reference_cell(c) for c in row)
        assert lines[-2] == ",3,-12,0.1,-0.0,5e-324,inf,1e+16,-2.5e-07"
        assert lines[-1] == ""

    def test_trajectory_cells_parse_back_exactly(self, tmp_path):
        gen = {"dim": 2,
               "hamiltonian": [[0.35, 0.0], [0.1, -0.2], [0.1, 0.2],
                               [-0.35, 0.0]],
               "channels": [{"jump": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0],
                                      [0.0, 0.0]], "rate": 0.6}]}
        doc = {"command": "solve", "generator": gen, "alpha": 0.7,
               "h": 0.01, "n_steps": 150}
        code, out = run(tmp_path, doc)
        assert code == 0
        _, header, rows = read_csv(out)
        traj = fam_solve(generator_from_json(gen), 0.7, 0.01, 150,
                         plus_state())
        want = [[float(t)] + [x for z in state.entries.ravel()
                              for x in (z.real, z.imag)]
                for t, state in zip(traj.times(), traj.states)]
        got = np.array([[float(cell) for cell in row] for row in rows])
        want = np.array(want)
        assert got.shape == (151, 9) and len(header) == 9
        assert np.any(want[:, 2::2] != 0.0)
        assert got == pytest.approx(want, abs=0.0, rel=0.0)

    def test_subordinate_integer_columns(self, tmp_path):
        code, out = run(tmp_path, SUB_DOC)
        assert code == 0
        _, header, rows = read_csv(out)
        for name in ("n_samples", "seed"):
            cells = [r[header.index(name)] for r in rows]
            assert all(c.isdigit() for c in cells), cells


class TestPlumbing:
    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "artifacts"
        monkeypatch.setenv("FRACDYN_OUT_DIR", str(target))
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 0.5, "t_max": 1.0, "n_points": 2},
               "regime": "short_time"}
        cfg = write_config(tmp_path, doc)
        code = main(["exact", "--config", cfg, "--out", "sub/x.csv"])
        assert code == 0
        assert (target / "sub" / "x.csv").exists()

    def test_absolute_out_ignores_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACDYN_OUT_DIR", str(tmp_path / "elsewhere"))
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 0.5, "t_max": 1.0, "n_points": 2},
               "regime": "short_time"}
        code, out = run(tmp_path, doc, out_name="abs.csv")
        assert code == 0
        assert out.exists()
        assert not (tmp_path / "elsewhere").exists()

    def test_accuracy_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(bath, t):
            raise AccuracyError("quadrature failed")

        monkeypatch.setattr("fracdyn.cli.dephasing_Q", boom)
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 0.5, "t_max": 1.0, "n_points": 2},
               "regime": "short_time"}
        code, _ = run(tmp_path, doc)
        assert code == 3
        assert "numerical-accuracy" in capsys.readouterr().err

    def test_unconverged_quadrature_is_accuracy_failure(self, tmp_path,
                                                       thermal_q_mpmath):
        # A finite-temperature sub-Ohmic config on which an adaptive
        # quadrature of Q does not converge from t = 20 on: the closed form
        # runs it to the end, exactly.
        doc = {"command": "exact", "bath": {"eta": 1, "chi": 0.5, "beta": 1},
               "grid": {"t_min": 0, "t_max": 30, "n_points": 31},
               "regime": "short_time"}
        code, out = run(tmp_path, doc)
        assert code == 0
        _, header, rows = read_csv(out)
        bath = BathSpec(1.0, 0.5, beta=1.0)
        times = column(header, rows, "t")
        want = [thermal_q_mpmath(bath, t) for t in times]
        np.testing.assert_allclose(column(header, rows, "Q"), want,
                                   rtol=1e-12, atol=0.0)

    def test_digest_canonicalization(self, tmp_path):
        # Key order and explicit defaults must not change the digest.
        a = tmp_path / "a.json"
        a.write_text('{"command": "markov", '
                     '"bath": {"eta": 1.0, "chi": 1.0}, '
                     '"grid": {"t_min": 0.0, "t_max": 20.0, "n_points": 81},'
                     ' "window": {"t_start": 2.0, "t_end": 15.0}}')
        b = tmp_path / "b.json"
        b.write_text('{"window": {"t_end": 15.0, "t_start": 2.0}, '
                     '"epsilon": 0.0, '
                     '"grid": {"n_points": 81, "t_min": 0.0, "t_max": 20.0},'
                     ' "bath": {"chi": 1.0, "eta": 1.0}, '
                     '"command": "markov"}')
        assert main(["markov", "--config", str(a), "--out",
                     str(tmp_path / "a.csv")]) == 0
        assert main(["markov", "--config", str(b), "--out",
                     str(tmp_path / "b.csv")]) == 0
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())

    def test_module_invocation_smoke(self, tmp_path):
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 0.5},
               "grid": {"t_min": 0.5, "t_max": 1.0, "n_points": 2},
               "regime": "short_time"}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "fracdyn.cli", "exact",
             "--config", cfg, "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()


# Runs ``main(argv)`` and prints the public scipy subpackages it loaded.
_FRESH_CLI = """
import json, sys
from fracdyn.cli import main
code = main(sys.argv[1:])
subpackages = {m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}
print(json.dumps(sorted(p for p in subpackages if not p.startswith("_"))))
sys.exit(code)
"""


def fresh_python(*args):
    """Run ``python *args`` in a new interpreter on this tree's fracdyn."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def fresh_cli(command, config, out, *extra):
    """Run one CLI command in a new interpreter; the scipy subpackages it
    loaded."""
    proc = fresh_python("-c", _FRESH_CLI, command, "--config", str(config),
                        "--out", str(out), *extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestDeferredScipy:
    """Each scipy submodule is imported by the call that needs it.  Every
    in-process test runs after some test module has imported scipy, so a
    missing deferred import only shows in a new interpreter."""

    def test_import_loads_no_scipy(self):
        proc = fresh_python(
            "-c", "import sys, fracdyn, fracdyn.cli; print(sorted(m for m in "
            "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("stem", ["exact_short_time", "markov_vs_exact"])
    def test_zero_temperature_bath_loads_no_scipy(self, tmp_path, stem):
        cfg = DEMOS / "configs" / f"{stem}.json"
        command = json.loads(cfg.read_text())["command"]
        assert fresh_cli(command, cfg, tmp_path / "out.csv") == []

    def test_fracfit_first_use(self, tmp_path):
        stem = "fracfit_super_ohmic"
        loaded = fresh_cli("fracfit", DEMOS / "configs" / f"{stem}.json",
                           tmp_path / f"{stem}.csv")
        assert "optimize" in loaded
        got = json.loads((tmp_path / f"{stem}.json").read_text())
        want = json.loads((DEMOS / "output" / f"{stem}.json").read_text())
        for key in ("alpha", "lambda"):
            np.testing.assert_allclose(got[key], want[key], rtol=1e-6,
                                       atol=0.0, err_msg=key)

    def test_subordinate_first_use_in_pool_threads(self, tmp_path):
        # With two threads the first scipy.special import happens in both
        # pool workers at once.
        out = tmp_path / "subordinate_mc.csv"
        loaded = fresh_cli("subordinate", DEMOS / "configs" / "subordinate_mc.json",
                           out, "--threads", "2")
        assert "special" in loaded
        _, header, rows = read_csv(out)
        _, want_header, want_rows = read_csv(DEMOS / "output" / "subordinate_mc.csv")
        for name in ("t", "obs_quad", "obs_ml"):
            np.testing.assert_allclose(column(header, rows, name),
                                       column(want_header, want_rows, name),
                                       rtol=1e-9, atol=1e-12, err_msg=name)

    def test_soe_solve_first_use(self, tmp_path):
        # soe_compress builds its kernel with math.gamma: the SOE demo needs
        # scipy.special (kernel_eval, the solver prefactor) and nothing else.
        stem = "solver_soe_trajectory"
        loaded = fresh_cli("solve", DEMOS / "configs" / f"{stem}.json",
                           tmp_path / f"{stem}.csv")
        assert "special" in loaded
        assert not {"optimize", "integrate", "linalg"} & set(loaded)

    def test_finite_temperature_exact_first_use(self, tmp_path):
        doc = {"command": "exact", "bath": {"eta": 1, "chi": 1.5, "beta": 2},
               "grid": {"t_min": 0.5, "t_max": 5, "n_points": 10},
               "regime": "super_ohmic"}
        cfg = write_config(tmp_path, doc)
        assert fresh_cli("exact", cfg, tmp_path / "fresh.csv") == []
        assert main(["exact", "--config", cfg, "--out",
                     str(tmp_path / "warm.csv")]) == 0
        assert ((tmp_path / "fresh.csv").read_bytes()
                == (tmp_path / "warm.csv").read_bytes())
