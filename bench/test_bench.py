"""Tests of the benchmark itself: its checks, tracer, seeding and sampler.

Run with ``PYTHONPATH=src python3 -m pytest bench``.  The jobs here are
shrunken versions of the workloads' jobs, so the file runs in seconds.
"""

from __future__ import annotations

import shutil
import signal
import sys
import time

import pytest

import fracdyn
import fracdyn.cli
import fracdyn.lindblad
from calibrate import PARTS, REFERENCE_PART_S, Sampler
from checks import (check_fit_json, check_monte_carlo, compare_csv,
                    read_csv)
from tracing import TRACED, Tracer
from workloads import (REFERENCE, Job, _demo_config, _subordinate_job,
                       cli_job, run_job, run_pass)


def _perturb(src, dst, column, row, factor):
    """Copy a CSV artifact, scaling one cell of ``column``."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    header_at = next(i for i, line in enumerate(lines)
                     if not line.startswith("#"))
    j = lines[header_at].rstrip("\n").split(",").index(column)
    cells = lines[header_at + 1 + row].rstrip("\n").split(",")
    cells[j] = repr(float(cells[j]) * factor)
    lines[header_at + 1 + row] = ",".join(cells) + "\n"
    dst.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("stem,column", [
    ("markov_vs_exact", "abs_u_tcl"),
    ("exact_ohmic_tail", "Q"),
    ("solver_soe_trajectory", "re_01"),
])
def test_checker_flags_one_value_beyond_tolerance(tmp_path, stem, column):
    ref = REFERENCE / f"{stem}.csv"
    out = tmp_path / f"{stem}.csv"
    shutil.copyfile(ref, out)
    assert compare_csv(out, ref) == []
    _perturb(ref, out, column, 7, 1.0 + 4e-16)  # last-ulp drift passes
    assert compare_csv(out, ref) == []
    _perturb(ref, out, column, 7, 1.0 + 1e-6)
    problems = compare_csv(out, ref)
    assert len(problems) == 1 and f":{column}" in problems[0]
    assert "first at row 7" in problems[0]


def test_checker_flags_fit_json_and_monte_carlo(tmp_path):
    ref = REFERENCE / "fracfit_sub_ohmic.json"
    doc = ref.read_text(encoding="utf-8")
    out = tmp_path / ref.name
    out.write_text(doc.replace('"alpha": 0.98358669648024',
                               '"alpha": 0.98358769648024'))
    assert any("alpha" in p for p in check_fit_json(out, ref))
    out.write_text(doc.replace('"converged": true', '"converged": false'))
    assert any("converged" in p for p in check_fit_json(out, ref))

    mc = REFERENCE / "subordinate_mc.csv"
    assert check_monte_carlo(mc, 20000, 7) == []
    bad = tmp_path / mc.name
    _perturb(mc, bad, "mc_mean", 3, 1.1)  # ~10 standard errors off
    problems = check_monte_carlo(bad, 20000, 7)
    assert len(problems) == 1 and "row 3" in problems[0]
    assert any("seed" in p for p in check_monte_carlo(mc, 20000, 8))


def _small_jobs():
    """One shrunken job per CLI command, checks left out."""
    def no_check(out_dir):
        return []

    fit = _demo_config("fracfit_super_ohmic",
                       grid={"t_min": 0.0, "t_max": 20.0, "n_points": 41})
    markov = _demo_config("markov_vs_exact",
                          grid={"t_min": 0.0, "t_max": 20.0, "n_points": 21},
                          window={"t_start": 2.0, "t_end": 20.0})
    sub = _demo_config("subordinate_mc", n_samples=500,
                       grid={"t_min": 0.0, "t_max": 2.0, "n_points": 3})
    soe = _demo_config("solver_soe_trajectory", n_steps=200)
    return [
        cli_job("exact", _demo_config("exact_short_time"), no_check),
        cli_job("markov", markov, no_check),
        cli_job("fit", fit, no_check),
        cli_job("sub", sub, no_check, "--seed", "3", "--threads", "2"),
        cli_job("conv", _demo_config("solver_convergence"), no_check),
        cli_job("soe", soe, no_check),
        cli_job("dense", dict(soe, history="dense"), no_check),
    ]


def test_traced_and_untraced_runs_write_identical_artifacts(tmp_path):
    jobs = _small_jobs()
    plain = run_pass(jobs, tmp_path / "plain")
    tracer = Tracer()
    with tracer:
        traced = run_pass(jobs, tmp_path / "traced", tracer)
    assert plain.failed == traced.failed == 0, plain.problems + traced.problems
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "traced").iterdir())
    assert len(names) >= 2 * len(jobs)
    for name in names:
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "traced" / name).read_bytes()), name
    seen = {s.name for s in tracer.spans}
    assert seen == set(TRACED) | {"lindblad.DensityMatrix", "job"}


def _namespaces():
    """Every attribute of every fracdyn module, and DensityMatrix's hook."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "fracdyn" or name.startswith("fracdyn."):
            snap.update({(name, k): v for k, v in vars(module).items()})
    snap["post_init"] = fracdyn.lindblad.DensityMatrix.__dict__["__post_init__"]
    return snap


def test_wrappers_restore_the_original_functions():
    before = _namespaces()
    original_ml = fracdyn.fitting.mittag_leffler
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert fracdyn.fitting.mittag_leffler is not original_ml
            assert fracdyn.cli.fam_solve is not before[("fracdyn.cli",
                                                        "fam_solve")]
            state = fracdyn.plus_state()
            assert isinstance(state, fracdyn.DensityMatrix)
            fracdyn.fitting.mittag_leffler(0.5, -1.0)
            1 / 0
    after = _namespaces()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    names = [s.name for s in tracer.spans]
    assert names.count("specfun.mittag_leffler") == 1
    assert "lindblad.DensityMatrix" in names


def test_second_seed_changes_only_monte_carlo_columns(tmp_path):
    doc = _demo_config("subordinate_mc", n_samples=2000)
    files = {}
    for seed in (7, 8):
        job = _subordinate_job("sub", seed, doc)
        out = tmp_path / str(seed)
        out.mkdir()
        _, problems = run_job(job, out)
        assert problems == []
        files[seed] = out
    comments, header, rows = {}, {}, {}
    for seed, out in files.items():
        comments[seed], header[seed], rows[seed] = read_csv(out / "sub.csv")
    assert header[7] == header[8]
    cols = {name: i for i, name in enumerate(header[7])}
    mc_columns = {"mc_mean", "mc_stderr", "seed"}
    for name, j in cols.items():
        a = [r[j] for r in rows[7]]
        b = [r[j] for r in rows[8]]
        if name in mc_columns:
            assert a[1:] != b[1:] and all(x != y for x, y in zip(a[1:], b[1:]))
        else:
            assert a == b, name
    # The digest covers the config, which records the seed.
    assert comments[7].pop("config_digest") != comments[8].pop("config_digest")
    assert comments[7] == comments[8]
    div = [read_csv(files[seed] / "sub_divisibility.csv") for seed in (7, 8)]
    assert div[0][0].pop("config_digest") != div[1][0].pop("config_digest")
    assert div[0] == div[1]


def test_sampler_times_units_and_is_not_charged_to_the_job(tmp_path):
    def spin(out_dir):
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        return 0

    job = Job("spin", spin, lambda out_dir: [])
    handler = signal.getsignal(signal.SIGALRM)
    result = run_pass([job], tmp_path)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    wall, reference = result.job_seconds["spin"], result.job_reference_s["spin"]
    # The job waits out 0.5 s of wall time, some of it in the sampler.
    assert wall < 0.5
    assert reference > 0.0

    sampler = Sampler()
    with sampler:
        spin(tmp_path)
    assert len(sampler.units) >= 3
    assert 0.0 < sampler.busy_s < 0.5
    total = sum(REFERENCE_PART_S.values())
    assert 0.1 * total < sampler.unit_s() < 10 * total
    assert sampler.unit_s() == pytest.approx(
        sum(sampler.unit_s((part,)) for part in PARTS))
