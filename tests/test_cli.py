"""End-to-end tests for the reproduction CLI.

Commands are exercised in-process through ``main`` so that exit codes,
stderr messages, and artifact bytes can be asserted directly; subprocess
tests cover the console script and the scipy imports deferred to first use.
"""

import csv
import functools
import io
import json
import math
import os
import subprocess
import sys

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("command", [["solve"], {"a": 1}],
                             ids=["list", "object"])
    def test_non_string_command(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"command": command})
        code = main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "o.csv")])
        assert code == 2
        assert "$.command" in capsys.readouterr().err

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

    def test_non_object_root(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code = main(["exact", "--config", str(path), "--out",
                     str(tmp_path / "o.csv")])
        assert code == 2
        assert "root must be a JSON object" in capsys.readouterr().err

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

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        # The config's seed minimum holds for the override too: exit 2, not
        # a traceback from the random generator.
        doc = {**SUB_DOC, "grid": {"t_min": 0.0, "t_max": 1.0, "n_points": 2},
               "n_samples": 10}
        code, out = run(tmp_path, doc, extra=("--seed", "-5"))
        assert code == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

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

    def test_grid_beyond_memory_is_config_error(self, tmp_path, capsys):
        # 1e15 points need 7 PiB, past any address space, so numpy refuses
        # the allocation at once; the run ends with a one-line config error.
        doc = {"command": "exact", "bath": {"eta": 1.0, "chi": 1.0},
               "grid": {"t_min": 10.0, "t_max": 1000.0, "n_points": 1e15,
                        "spacing": "log"},
               "regime": "ohmic"}
        code, out = run(tmp_path, doc)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory")
        assert err.count("\n") == 1
        assert not out.exists()

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


# One valid config per command; each row of REFUSED breaks exactly one rule
# of it, at the key (a path into the config) that the message must name.
_BATH = {"eta": 1.0, "chi": 0.5}
_GRID = {"t_min": 0.0, "t_max": 20.0, "n_points": 81}
_WINDOW = {"t_start": 2.0, "t_end": 15.0}
VALID = {
    "exact": {"command": "exact", "bath": _BATH,
              "grid": {"t_min": 0.1, "t_max": 1.0, "n_points": 3},
              "regime": "short_time"},
    "markov": {"command": "markov", "bath": _BATH, "grid": _GRID,
               "window": _WINDOW},
    "fracfit": {"command": "fracfit", "bath": _BATH, "grid": _GRID,
                "window": _WINDOW},
    "subordinate": {"command": "subordinate", "alpha": 0.5,
                    "grid": {"t_min": 0.5, "t_max": 1.0, "n_points": 2},
                    "n_samples": 10, "divisibility": {"lam": 1.0}},
    "solve": {"command": "solve", "generator": DEPHASING_GEN, "alpha": 0.5,
              "h": 0.01, "n_steps": 10},
}
_MISSING = object()
REFUSED = [
    # An unknown key at each level.
    *[(command, ("bogus",), 1) for command in VALID],
    ("exact", ("bath", "bogus"), 1),
    ("exact", ("grid", "bogus"), 1),
    ("markov", ("window", "bogus"), 1),
    ("subordinate", ("divisibility", "bogus"), 1),
    # Each required key missing.
    *[("exact", (key,), _MISSING) for key in ("command", "bath", "grid",
                                               "regime")],
    *[(command, (key,), _MISSING) for command in ("markov", "fracfit")
      for key in ("window",)],
    *[("subordinate", (key,), _MISSING) for key in ("alpha", "n_samples")],
    *[("solve", (key,), _MISSING) for key in ("generator", "alpha")],
    ("exact", ("bath", "eta"), _MISSING),
    ("exact", ("bath", "chi"), _MISSING),
    ("exact", ("grid", "t_min"), _MISSING),
    ("exact", ("grid", "t_max"), _MISSING),
    ("exact", ("grid", "n_points"), _MISSING),
    ("markov", ("window", "t_start"), _MISSING),
    ("fracfit", ("window", "t_end"), _MISSING),
    ("subordinate", ("divisibility", "lam"), _MISSING),
    # Wrong types: number, bool for a number, integer, object, array, enum.
    ("exact", ("bath", "eta"), "1"),
    ("exact", ("bath", "chi"), True),
    ("exact", ("bath",), "x"),
    ("exact", ("grid", "n_points"), 2.5),
    ("exact", ("regime",), 1),
    ("markov", ("epsilon",), "x"),
    ("fracfit", ("epsilon",), None),
    ("fracfit", ("plateau",), "x"),
    ("subordinate", ("alpha",), "0.5"),
    ("subordinate", ("seed",), 1.5),
    ("subordinate", ("n_samples",), "10"),
    ("subordinate", ("divisibility",), [1.0]),
    ("solve", ("generator",), []),
    ("solve", ("init",), 1),
    ("solve", ("h_values",), 0.01),
    ("solve", ("h_values",), ["a", 0.01]),
    # Each bound.
    ("exact", ("bath", "eta"), 0),
    ("exact", ("bath", "chi"), 0.0),
    ("exact", ("bath", "omega_c"), -1.0),
    ("exact", ("bath", "beta"), 0.0),
    ("exact", ("bath", "beta"), "hot"),
    ("exact", ("grid", "t_min"), -1.0),
    ("exact", ("grid", "t_max"), 0.0),
    ("exact", ("grid", "n_points"), 0),
    ("exact", ("grid", "n_points"), 1e300),
    ("markov", ("window", "t_start"), 0.0),
    ("markov", ("window", "t_end"), -1.0),
    ("fracfit", ("plateau",), -0.1),
    ("fracfit", ("plateau",), 1.0),
    ("subordinate", ("alpha",), 0.0),
    ("subordinate", ("alpha",), 1.5),
    ("subordinate", ("gamma",), 0.0),
    ("subordinate", ("n_samples",), 1),
    ("subordinate", ("n_samples",), 1e300),
    ("subordinate", ("seed",), -1),
    ("subordinate", ("divisibility", "lam"), 0.0),
    ("subordinate", ("divisibility", "tau_fraction"), 0.0),
    ("subordinate", ("divisibility", "tau_fraction"), 1.0),
    ("solve", ("alpha",), 0.0),
    ("solve", ("alpha",), 1.01),
    ("solve", ("h",), 0.0),
    ("solve", ("n_steps",), 0),
    ("solve", ("soe_tol",), 0.0),
    ("solve", ("horizon",), -1.0),
    ("solve", ("h_values",), [0.0, 0.01]),
    ("solve", ("h_values",), [0.01]),
    # Each enum.
    ("exact", ("regime",), "weak"),
    ("exact", ("grid", "spacing"), "geometric"),
    ("subordinate", ("observable",), "sigma_w"),
    ("solve", ("scheme",), "euler"),
    ("solve", ("history",), "sparse"),
    ("solve", ("mode",), "sweep"),
]


@pytest.mark.parametrize(
    "command, path, value", REFUSED,
    ids=[f"{c}-{'.'.join(p)}={'missing' if v is _MISSING else repr(v)}"
         for c, p, v in REFUSED])
def test_config_rule_refuses(tmp_path, capsys, command, path, value):
    doc = json.loads(json.dumps(VALID[command]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    # The message names the key by its path, or its parent's path and the
    # key in quotes.
    err = capsys.readouterr().err
    where = "".join(["$", *(f".{k}" for k in path[:-1])])
    assert f"{where}.{path[-1]}" in err or (
        f"{where}:" in err and f"'{path[-1]}'" in err), err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(VALID))
def test_config_rule_table_starts_from_valid_configs(tmp_path, command):
    assert run(tmp_path, VALID[command])[0] == 0


@pytest.mark.parametrize("command, key, value", [
    ("solve", "horizon", math.nan),
    ("solve", "h_values", [math.nan, 0.01]),
    ("fracfit", "epsilon", math.nan),
])
def test_non_finite_literal_is_config_error(tmp_path, capsys, command, key,
                                            value):
    # json writes and reads NaN; it is refused as a config value (exit 2),
    # not carried into the run.
    doc = dict(VALID[command], **{key: value})
    if command == "solve":
        doc = dict(doc, mode="convergence")
        doc.setdefault("h_values", [0.02, 0.01])
    code, out = run(tmp_path, doc)
    assert code == 2
    assert f"$.{key}" in capsys.readouterr().err
    assert not out.exists()


EXACT_DOC = {"command": "exact", "bath": {"eta": 1.0, "chi": 0.5},
             "grid": {"t_min": 0.5, "t_max": 1.0, "n_points": 2},
             "regime": "short_time"}


class TestParser:
    def test_options_before_the_command(self, tmp_path):
        cfg = write_config(tmp_path, EXACT_DOC)
        after = tmp_path / "after.csv"
        before = tmp_path / "before.csv"
        assert main(["exact", "--config", cfg, "--out", str(after)]) == 0
        assert main(["--out", str(before), "--threads", "2", "--config", cfg,
                     "exact"]) == 0
        assert before.read_bytes() == after.read_bytes()

    def test_help_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for command in ("exact", "markov", "fracfit", "subordinate",
                        "solve"):
            assert f"\n  {command} " in text

    @pytest.mark.parametrize("argv, message", [
        (["frobnicate", "--config", "c.json", "--out", "o.csv"],
         "invalid choice: 'frobnicate'"),
        (["exact", "--config", "c.json"], "required: --out"),
    ], ids=["unknown-command", "missing-out"])
    def test_usage_error_exits_2(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_successive_calls_with_different_commands(self, tmp_path):
        # One parser serves every call of the process.
        exact = tmp_path / "exact.csv"
        assert main(["exact", "--config", write_config(tmp_path, EXACT_DOC),
                     "--out", str(exact)]) == 0
        doc = {"command": "solve", "generator": DEPHASING_GEN,
               "alpha": 0.6, "h": 0.05, "n_steps": 5}
        cfg = write_config(tmp_path, doc, name="solve.json")
        solve = tmp_path / "solve.csv"
        assert main(["solve", "--config", cfg, "--out", str(solve)]) == 0
        assert main(["exact", "--config", cfg, "--out",
                     str(tmp_path / "mismatch.csv")]) == 2
        assert read_csv(exact)[1][0] == "t"
        assert len(read_csv(solve)[2]) == 6
        assert cli._build_parser() is cli._build_parser()

    def test_good_parse_after_a_failing_one(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--config", "c.json", "--threads", "two"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fracdyn ")
        assert "invalid int value: 'two'" in err
        out = tmp_path / "out.csv"
        assert main(["exact", "--config", write_config(tmp_path, EXACT_DOC),
                     "--out", str(out)]) == 0
        assert out.exists()
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--config", "c.json", "--threads", "two"])
        assert capsys.readouterr().err == err


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

    def test_prefactor_past_the_double_range(self, tmp_path):
        # The asymptote reaches 1e200, so its squares overflow a double; the
        # fitted amplitude is still the least-squares one.
        doc = {"command": "exact",
               "bath": {"eta": 1.0, "chi": 0.5, "omega_c": 1e100},
               "grid": {"t_min": 0.1, "t_max": 1.0, "n_points": 5},
               "regime": "short_time"}
        code, out = run(tmp_path, doc)
        assert code == 0
        comments, header, rows = read_csv(out)
        pref = next(float(c.split(":")[1]) for c in comments
                    if "amplitude_prefactor" in c)
        times = column(header, rows, "t")
        q = column(header, rows, "Q")
        # q_asym = c t^2 with c = 1e200 Gamma(3/2) / 2, so the amplitude is
        # sum(q t^2) / (c sum(t^4)).
        want = (np.dot(q, times**2) / np.dot(times**2, times**2)
                / (0.5e200 * math.gamma(1.5)))
        assert pref == pytest.approx(want, rel=1e-13)
        assert 1e-150 < pref < 1e-149
        np.testing.assert_allclose(column(header, rows, "Q_asym"),
                                   pref * 0.5e200 * math.gamma(1.5) * times**2,
                                   rtol=1e-13)

    @pytest.mark.parametrize("bath, regime, message", [
        ({"eta": 1.0, "chi": 0.5, "omega_c": 1e300}, "short_time",
         "omega_c = 1e+300"),
        # eta ln(omega_c t) passes the largest double; (2/pi) of it, Q,
        # does not.
        ({"eta": 1e306, "chi": 1.0, "omega_c": 3.7e107}, "ohmic",
         "amplitude_prefactor is nan"),
    ], ids=["asymptote", "prefactor"])
    def test_overflow_is_config_error(self, tmp_path, capsys, bath, regime,
                                      message):
        doc = {"command": "exact", "bath": bath,
               "grid": {"t_min": 10.0, "t_max": 1000.0, "n_points": 5},
               "regime": regime}
        code, out = run(tmp_path, doc)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_ohmic_asymptote_below_the_double_range(self, tmp_path):
        # omega_c^2 t^2 underflows to 0; ln(omega_c t) does not.
        doc = {"command": "exact",
               "bath": {"eta": 1.0, "chi": 1.0, "omega_c": 1e-200},
               "grid": {"t_min": 1.0, "t_max": 10.0, "n_points": 3},
               "regime": "ohmic"}
        code, out = run(tmp_path, doc)
        assert code == 0
        _, header, rows = read_csv(out)
        assert np.all(np.isfinite(column(header, rows, "Q_asym")))

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

    def test_soe_history_refuses_paper_printed(self, tmp_path, monkeypatch,
                                               capsys):
        def refuse(*args):
            raise AssertionError("a kernel was compressed")

        monkeypatch.setattr(cli, "soe_compress", refuse)
        doc = {"command": "solve", "generator": DEPHASING_GEN,
               "alpha": 0.5, "h": 0.01, "n_steps": 100, "history": "soe",
               "scheme": "paper_printed"}
        code, out = run(tmp_path, doc)
        assert code == 2
        assert "$.scheme" in capsys.readouterr().err
        assert not out.exists()

    def test_library_csv_is_the_artifact_body(self, tmp_path):
        doc = {"command": "solve", "generator": DEPHASING_GEN,
               "alpha": 0.6, "h": 0.05, "n_steps": 20}
        code, out = run(tmp_path, doc)
        assert code == 0
        traj = fam_solve(generator_from_json(DEPHASING_GEN), 0.6, 0.05, 20,
                         plus_state())
        traj.to_csv(tmp_path / "lib.csv")
        body = b"".join(line for line in out.read_bytes().splitlines(True)
                        if not line.startswith(b"#"))
        assert (tmp_path / "lib.csv").read_bytes() == body

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

    @pytest.mark.parametrize("field, value", [
        ("rate", True), ("rate", "0.5"), ("hamiltonian", ["0.5", "0"]),
        ("hamiltonian", [True, 0.0])])
    def test_non_number_generator_json_exits_2(self, tmp_path, capsys,
                                                field, value):
        gen = json.loads(json.dumps(DEPHASING_GEN))
        if field == "rate":
            gen["channels"][0]["rate"] = value
        else:
            gen["hamiltonian"][0] = value
        doc = {"command": "solve", "generator": gen,
               "alpha": 0.6, "h": 0.05, "n_steps": 5}
        code, out = run(tmp_path, doc)
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_ragged_init_exits_2(self, tmp_path, capsys):
        doc = {"command": "solve", "generator": DEPHASING_GEN,
               "alpha": 0.6, "h": 0.05, "n_steps": 5,
               "init": {"dim": 2, "entries": [[0.5, 0.0], [0.0],
                                              [0.0, 0.0], [0.5, 0.0]]}}
        assert run(tmp_path, doc)[0] == 2
        assert "entries" in capsys.readouterr().err

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

    @pytest.mark.parametrize("history", ["dense", "soe"])
    def test_trajectory_builds_no_state_per_step(self, tmp_path, monkeypatch,
                                                 history):
        # The table is read off the admitted stack: the only DensityMatrix
        # made is the initial state.
        from fracdyn import fracsolve
        from fracdyn.lindblad import DensityMatrix

        def refuse(*args):
            raise AssertionError("a per-step state was built")

        checked = []
        post_init = DensityMatrix.__post_init__
        monkeypatch.setattr(fracsolve, "_admitted_state", refuse)
        monkeypatch.setattr(DensityMatrix, "__post_init__",
                            lambda self: checked.append(post_init(self)))
        doc = {"command": "solve", "generator": DEPHASING_GEN,
               "alpha": 0.5, "h": 0.01, "n_steps": 200, "history": history}
        code, out = run(tmp_path, doc)
        assert code == 0
        assert len(checked) == 1
        assert len(read_csv(out)[2]) == 201

    def test_soe_demo_admits_its_states_without_an_eigensolve(
            self, tmp_path, monkeypatch):
        # Every state of the demo trajectory is certified positive
        # semidefinite by its Gershgorin bound.
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: solved.append(np.shape(a))
                            or eigvalsh(a))
        out = tmp_path / "soe.csv"
        assert main(["solve", "--config",
                     str(DEMOS / "configs" / "solver_soe_trajectory.json"),
                     "--out", str(out)]) == 0
        assert len(read_csv(out)[2]) == 5001
        assert solved == []


# The CSV cell text before the array emitter: str for strings, digits for
# Python and NumPy integers, repr(float(x)) for everything else.
def _reference_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


_NAN2 = float(np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0])
_SPECIAL_CELLS = [0.0, -0.0, math.nan, _NAN2, math.inf, -math.inf, 5e-324,
                  -2.5e-310]


@st.composite
def float_tables(draw):
    """An (n, k) float table of 0 to 5 rows whose columns are drawn fresh,
    constant, or as a copy or the negation of an earlier column."""
    n = draw(st.integers(0, 5))
    cells = st.one_of(st.floats(), st.sampled_from(_SPECIAL_CELLS))
    cols = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("fresh", "constant", "copy", "negated")
                                    [:4 if cols else 2]))
        if kind == "fresh":
            col = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
        elif kind == "constant":
            col = np.full(n, draw(cells))
        else:
            col = cols[draw(st.integers(0, len(cols) - 1))]
            col = col.copy() if kind == "copy" else -col
        cols.append(col.astype(np.float64))
    return np.column_stack(cols)


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

    def test_table_bytes_are_csv_writer_bytes(self, tmp_path):
        table = np.array([[0.0, 0.1, -2.5e-7, math.nan],
                          [1e16, math.nan, -0.0, 5e-324],
                          [math.inf, -math.inf, 1.0 / 3.0, 2.0]])
        rows = table.tolist() + [(np.float64(0.1), "", 3, np.int64(-12)),
                                 (math.nan, np.float64(math.nan), "", "")]
        columns = ["a", "b", "c", "d"]
        path = tmp_path / "table.csv"
        cli._emit_csv(path, "abc", columns, rows)
        text = path.read_bytes().decode("utf-8")
        body = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("#"))
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        assert body == want.getvalue()
        assert body.count("nan") == 4

    def test_float_array_bytes_are_csv_writer_bytes(self, tmp_path):
        # An ndarray is formatted once per distinct bit pattern: 0.0 and
        # -0.0, and NaNs of two payloads, stay apart; cells repeat across
        # rows and columns.
        nan2 = np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0]
        table = np.array([[0.0, -0.0, math.nan, 5e-324, 0.1],
                          [-5e-324, 2.5e-310, math.inf, -math.inf, -0.0],
                          [0.1, 0.1, -0.0, 0.0, nan2],
                          [nan2, 1.0 / 3.0, 2.5e-310, 1e16, 1.0 / 3.0]])
        columns = ["a", "b", "c", "d", "e"]
        path = tmp_path / "table.csv"
        cli._emit_csv(path, "abc", columns, table)
        text = path.read_bytes().decode("utf-8")
        body = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("#"))
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(table.tolist())
        assert body == want.getvalue()
        assert body.split("\n")[1] == "0.0,-0.0,nan,5e-324,0.1"
        assert body.count("nan") == 3 and body.count("-0.0") == 3

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=float_tables())
    def test_any_float_table_gives_csv_writer_bytes(self, tmp_path, table):
        columns = [f"c{j}" for j in range(table.shape[1])]
        path = tmp_path / "table.csv"
        cli._emit_csv(path, "abc", columns, table)
        body = "".join(line for line in path.read_text().splitlines(True)
                       if not line.startswith("#"))
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(table.tolist())
        assert body == want.getvalue()

    @pytest.mark.parametrize("columns, rows", [
        (["a", "b"], []),
        (["a"], [[""]]),
        (["a"], [[""], [0.5], [""]]),
        (["a", "b"], [["", ""], ["", 1]]),
    ], ids=["no-rows", "one-empty-cell", "empty-cells", "empty-pairs"])
    def test_empty_cells_give_csv_writer_bytes(self, tmp_path, columns,
                                               rows):
        path = tmp_path / "table.csv"
        cli._emit_csv(path, "abc", columns, rows)
        body = "".join(line for line in path.read_text().splitlines(True)
                       if not line.startswith("#"))
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        assert body == want.getvalue()

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


# Prints the top-level names outside the standard library of the modules
# loaded from a file since ``before`` was taken (Cython's runtime modules
# have no file).
_NEW_PACKAGES = """
print(json.dumps(sorted(
    {m.split(".")[0] for m in set(sys.modules) - before
     if getattr(sys.modules[m], "__file__", None)}
    - set(sys.stdlib_module_names))))
"""

# Runs ``main(argv)`` and prints the public scipy subpackages it loaded,
# then the packages it loaded.
_FRESH_CLI = """
import json, sys
before = set(sys.modules)
from fracdyn.cli import main
code = main(sys.argv[1:])
subpackages = {m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}
print(json.dumps(sorted(p for p in subpackages if not p.startswith("_"))))
""" + _NEW_PACKAGES + """
sys.exit(code)
"""


def fresh_python(*args):
    """Run ``python *args`` in a new interpreter on this tree's fracdyn."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def new_packages(code):
    """The packages that a new interpreter loads to run ``code``."""
    proc = fresh_python("-c", "import json, sys; before = set(sys.modules)\n"
                        + code + _NEW_PACKAGES)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@functools.lru_cache(maxsize=None)
def scipy_optimize_packages():
    return frozenset(new_packages("import scipy.optimize"))


def fresh_cli(command, config, out, *extra):
    """Run one CLI command in a new interpreter; the scipy subpackages it
    loaded.  Besides the standard library it may load fracdyn and numpy
    only, and for ``fracfit`` what ``import scipy.optimize`` loads."""
    proc = fresh_python("-c", _FRESH_CLI, command, "--config", str(config),
                        "--out", str(out), *extra)
    assert proc.returncode == 0, proc.stderr
    subpackages, packages = map(json.loads, proc.stdout.splitlines())
    allowed = {"fracdyn", "numpy"}
    if command == "fracfit":
        allowed |= scipy_optimize_packages()
    assert set(packages) <= allowed, packages
    return subpackages


def assert_fresh_solve_matches_demo(tmp_path, stem):
    """A fresh ``solve`` of a demo config loads no scipy and reproduces the
    committed artifact at the demo-check tolerances."""
    out = tmp_path / f"{stem}.csv"
    assert fresh_cli("solve", DEMOS / "configs" / f"{stem}.json", out) == []
    _, header, rows = read_csv(out)
    _, want_header, want_rows = read_csv(DEMOS / "output" / f"{stem}.csv")
    assert header == want_header
    # An empty cell (the first row's convergence order) reads as NaN.
    got, want = (np.array([[float(x or "nan") for x in r] for r in body])
                 for body in (rows, want_rows))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


class TestDeferredScipy:
    """Each scipy submodule is imported by the call that needs it, and Gamma
    comes from ``math``, so ``solve`` and ``subordinate`` load no scipy at
    all.  Every in-process test runs after some test module has imported
    scipy, so a stray import only shows in a new interpreter."""

    def test_import_loads_only_numpy(self):
        assert new_packages("import fracdyn.cli") == ["fracdyn", "numpy"]

    # The six other demo configs run through fresh_cli in the tests below.
    @pytest.mark.parametrize("stem", ["exact_ohmic_tail",
                                      "exact_super_ohmic_plateau",
                                      "fracfit_sub_ohmic"])
    def test_demo_loads_only_its_dependencies(self, tmp_path, stem):
        cfg = DEMOS / "configs" / f"{stem}.json"
        command = json.loads(cfg.read_text())["command"]
        fresh_cli(command, cfg, tmp_path / f"{stem}.csv")

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
        # With two threads both pool workers first build the clock rule
        # (the M-Wright weights) at once; none of it may import scipy.
        out = tmp_path / "subordinate_mc.csv"
        loaded = fresh_cli("subordinate", DEMOS / "configs" / "subordinate_mc.json",
                           out, "--threads", "2")
        assert loaded == []
        _, header, rows = read_csv(out)
        _, want_header, want_rows = read_csv(DEMOS / "output" / "subordinate_mc.csv")
        for name in ("t", "obs_quad", "obs_ml"):
            np.testing.assert_allclose(column(header, rows, name),
                                       column(want_header, want_rows, name),
                                       rtol=1e-9, atol=1e-12, err_msg=name)

    def test_soe_solve_first_use(self, tmp_path):
        # soe_compress, kernel_eval and the solver prefactors take Gamma from
        # math: the SOE demo needs no scipy.
        assert_fresh_solve_matches_demo(tmp_path, "solver_soe_trajectory")

    def test_convergence_solve_loads_no_scipy(self, tmp_path):
        assert_fresh_solve_matches_demo(tmp_path, "solver_convergence")

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
