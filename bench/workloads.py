"""The benchmark's workloads and the worker process that times them.

Each workload is a list of real fracdyn jobs.  CLI jobs go through
``fracdyn.cli.main`` with a config derived from ``demos/configs/``; library
jobs call the public API.  Artifacts go to a scratch directory and are
checked against ``demos/output/`` (see ``checks.py``), which is only read.

Run as a script, this module is the worker: a fresh interpreter that
imports fracdyn, makes one cold and one warm pass over the workload and, with
``--trace 1``, one more pass under the tracer.  It writes the time of every
job in every pass, in wall seconds and in reference seconds
(``calibrate.py``), as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import calibrate
from checks import (FIT_ATOL, FIT_RTOL, SOE_DENSE_ATOL, check_fit_json,
                    check_monte_carlo, check_solve_pair, compare_csv)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "demos" / "configs"
REFERENCE = ROOT / "demos" / "output"

# Worker threads for the subordinate rows: the core count of the 2-core
# machine the baseline was taken on, fixed so the workload is the same
# everywhere.
SUBORDINATE_THREADS = 2
# Library solve pair: gate 15's problem at N = 4000.
PAIR_ALPHA, PAIR_H, PAIR_N, PAIR_SOE_TOL = 0.5, 5e-4, 4000, 1e-8


@dataclass(frozen=True)
class Job:
    """One fracdyn job and the checks of what it writes."""

    name: str
    run: Callable[[Path], int]          # out_dir -> exit code
    check: Callable[[Path], List[str]]  # out_dir -> problems


@dataclass
class Workload:
    jobs: List[Job]
    # The parts of the calibration unit whose speed tracks the jobs' best
    # (see README.md).
    calibration: Tuple[str, ...] = calibrate.PARTS
    threads: int = 1
    # Run once, traced, after the timed passes; kept out of wall_s/cold_s
    # and out of attempted/failed (see README.md).
    probe: Optional[Job] = None


def _demo_config(stem: str, **overrides) -> dict:
    doc = json.loads((CONFIGS / f"{stem}.json").read_text(encoding="utf-8"))
    doc.update(overrides)
    return doc


def cli_job(name: str, doc: dict, check: Callable[[Path], List[str]],
            *extra: str) -> Job:
    """A ``fracdyn <command>`` run of ``doc`` writing ``<name>.csv``."""

    def run(out_dir: Path) -> int:
        import fracdyn.cli

        config = out_dir / f"{name}.config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        # Looked up at call time, so the tracer's wrapper is the one called.
        return fracdyn.cli.main([doc["command"], "--config", str(config),
                                 "--out", str(out_dir / f"{name}.csv"),
                                 *extra])

    return Job(name, run, check)


def _against(name: str, stem: Optional[str] = None,
             **kwargs) -> Callable[[Path], List[str]]:
    """Compare ``<name>.csv`` with the reference ``<stem or name>.csv``."""

    def check(out_dir: Path) -> List[str]:
        return compare_csv(out_dir / f"{name}.csv",
                           REFERENCE / f"{stem or name}.csv", **kwargs)

    return check


def _demo_job(stem: str) -> Job:
    return cli_job(stem, _demo_config(stem), _against(stem))


def _fit_job(stem: str) -> Job:
    fit_tol = (FIT_RTOL, FIT_ATOL)
    csv_check = _against(stem, tolerances={"abs_u_fit": fit_tol,
                                           "deviation": fit_tol})

    def check(out_dir: Path) -> List[str]:
        return csv_check(out_dir) + check_fit_json(
            out_dir / f"{stem}.json", REFERENCE / f"{stem}.json")

    return cli_job(stem, _demo_config(stem), check)


def _subordinate_job(name: str, seed: int, doc: dict,
                     compare: bool = True) -> Job:
    """``fracdyn subordinate`` of ``doc`` at Monte-Carlo seed ``seed``.

    With ``compare`` the deterministic columns and the divisibility CSV are
    also compared with the demo reference, which needs the demo's physics
    and grid.
    """
    ref = REFERENCE / "subordinate_mc.csv"
    ref_div = REFERENCE / "subordinate_mc_divisibility.csv"

    def check(out_dir: Path) -> List[str]:
        out = out_dir / f"{name}.csv"
        problems = check_monte_carlo(out, doc["n_samples"], seed)
        if not compare:
            return problems
        return (problems
                + compare_csv(out, ref, columns=("t", "obs_quad", "obs_ml"))
                + compare_csv(out_dir / f"{name}_divisibility.csv", ref_div))

    return cli_job(name, doc, check, "--seed", str(seed),
                   "--threads", str(SUBORDINATE_THREADS))


def _solve_pair(out_dir: Path) -> int:
    """Library job: dense and SOE scalar solves of D^a u = -u, u(0) = 1."""
    import numpy as np

    import fracdyn

    dense = fracdyn.fam_solve(1.0, PAIR_ALPHA, PAIR_H, PAIR_N, 1.0)
    kernel = fracdyn.soe_compress(PAIR_ALPHA, PAIR_H, PAIR_H * PAIR_N,
                                  PAIR_SOE_TOL)
    soe = fracdyn.fam_solve_soe(1.0, PAIR_ALPHA, PAIR_H, PAIR_N, 1.0, kernel)
    np.save(out_dir / "solve_pair.npy",
            np.array([np.asarray(dense.states), np.asarray(soe.states)]))
    return 0


def _check_solve_pair(out_dir: Path) -> List[str]:
    from fracdyn.specfun import mittag_leffler

    t = PAIR_H * PAIR_N
    return check_solve_pair(out_dir / "solve_pair.npy",
                            mittag_leffler(PAIR_ALPHA, -t**PAIR_ALPHA))


NAMES = ("fit", "bath", "subordinate", "solve")


def workload(name: str, seed: int) -> Workload:
    """The jobs of workload ``name``; only the Monte-Carlo seed varies."""
    if name == "fit":
        # The sub-Ohmic fit is left out: its cold pass alone takes 14-18 s
        # on a 2-core machine, so a worker would overrun a 30 s run.
        return Workload([_fit_job("fracfit_super_ohmic")])
    if name == "bath":
        return Workload([_demo_job("exact_short_time"),
                         _demo_job("exact_ohmic_tail"),
                         _demo_job("exact_super_ohmic_plateau"),
                         _demo_job("markov_vs_exact")],
                        # markov's quadrature tracks the python part best.
                        ("python",))
    if name == "subordinate":
        mc_seed = seed % 2**31
        demo = _demo_config("subordinate_mc")
        coherent = _demo_config("subordinate_mc", epsilon=2.0)
        return Workload(
            [_subordinate_job("subordinate_mc", mc_seed, demo)],
            threads=SUBORDINATE_THREADS,
            probe=_subordinate_job("subordinate_coherent", mc_seed,
                                   coherent, compare=False))
    if name == "solve":
        soe = "solver_soe_trajectory"
        dense = cli_job("solver_dense_trajectory",
                        _demo_config(soe, history="dense"),
                        _against("solver_dense_trajectory", soe,
                                 atol=SOE_DENSE_ATOL))
        return Workload([_demo_job("solver_convergence"), _demo_job(soe),
                         dense, Job("solve_pair", _solve_pair,
                                    _check_solve_pair)])
    raise KeyError(f"unknown workload {name!r}; choose from {NAMES}")


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    problems: List[str]
    # Wall seconds of each job, less the time the sampler took in it.
    job_seconds: Dict[str, float]
    # The same in reference seconds (see calibrate.py), and the mean time
    # of each part of the unit; both empty when traced.
    job_reference_s: Dict[str, float]
    unit_s: Dict[str, float]


def run_job(job: Job, out_dir: Path, tracer=None,
            sampler: Optional[calibrate.Sampler] = None
            ) -> Tuple[float, List[str]]:
    """Run and check one job; returns its wall time and its problems.

    The time the ``sampler`` took while the job ran is not the job's.
    """
    busy = sampler.busy_s if sampler else 0.0
    start = time.perf_counter()

    def took() -> float:
        spent = time.perf_counter() - start
        return spent - (sampler.busy_s - busy if sampler else 0.0)

    elapsed = None
    try:
        if tracer is None:
            code = job.run(out_dir)
        else:
            code = tracer.job(job.name, job.run, out_dir)
        elapsed = took()
        if code != 0:
            return elapsed, [f"{job.name}: exit code {code}"]
        return elapsed, job.check(out_dir)
    except Exception:
        if elapsed is None:
            elapsed = took()
        return elapsed, [f"{job.name}: raised\n{traceback.format_exc()}"]


def run_pass(jobs: List[Job], out_dir: Path, tracer=None,
             parts: Optional[Sequence[str]] = calibrate.PARTS) -> PassResult:
    """Run every job into ``out_dir``; only the job runs are timed.

    Untraced and with ``parts``, a ``calibrate.Sampler`` runs through the
    pass, and each job's time is also given in reference seconds, scaled by
    the mean time of the unit's ``parts`` over the pass.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    seconds, failed, problems, per_job = 0.0, 0, [], {}
    sampler = calibrate.Sampler() if tracer is None and parts else None
    with sampler or contextlib.nullcontext():
        for job in jobs:
            elapsed, found = run_job(job, out_dir, tracer, sampler)
            seconds += elapsed
            per_job[job.name] = elapsed
            failed += bool(found)
            problems += found
    reference, units = {}, {}
    if sampler:
        unit_s = sampler.unit_s(parts)
        reference = {name: calibrate.scaled(s, unit_s, parts)
                     for name, s in per_job.items()}
        units = {part: sampler.unit_s((part,)) for part in calibrate.PARTS}
    return PassResult(seconds, len(jobs), failed, problems, per_job,
                      reference, units)


def measure(name: str, seed: int, trace: bool, out_dir: Path) -> dict:
    """One cold and one warm pass, then the optional traced pass."""
    import fracdyn.cli  # noqa: F401  (import is not part of any pass)

    wl = workload(name, seed)
    passes = [run_pass(wl.jobs, out_dir / "cold", parts=wl.calibration),
              run_pass(wl.jobs, out_dir / "warm", parts=wl.calibration)]
    result = {
        "cold": passes[0].job_reference_s,
        "warm": passes[1].job_reference_s,
        "cold_wall": passes[0].job_seconds,
        "warm_wall": passes[1].job_seconds,
        "unit_s": [passes[0].unit_s, passes[1].unit_s],
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "threads": wl.threads,
    }
    if trace:
        result.update(_traced(wl, out_dir, passes))
    result["attempted"] = sum(p.attempted for p in passes)
    result["failed"] = sum(p.failed for p in passes)
    result["problems"] = [msg for p in passes for msg in p.problems]
    return result


def _traced(wl: Workload, out_dir: Path, passes: List[PassResult]) -> dict:
    from tracing import Tracer, layer_metrics

    # The sampler interrupts a job in ways its own time does not cover
    # (GIL hand-offs, caches), so the overhead is taken against a pass
    # without it.
    plain = run_pass(wl.jobs, out_dir / "plain", parts=None)
    tracer = Tracer()
    with tracer:
        traced = run_pass(wl.jobs, out_dir / "traced", tracer)
        probe_s, probe_problems = 0.0, []
        if wl.probe is not None:
            probe_s, probe_problems = run_job(wl.probe, out_dir / "traced",
                                              tracer)
    tracer.write(out_dir / "spans.csv")
    metrics = layer_metrics(tracer.spans, [job.name for job in wl.jobs])
    metrics["cli.coherent_job.wall_s"] = probe_s
    metrics["cli.coherent_job.failed"] = float(bool(probe_problems))
    metrics["trace.overhead_s"] = traced.seconds - plain.seconds
    passes += [plain, traced]
    return {"traced": traced.job_seconds, "layers": metrics,
            "probe_problems": probe_problems}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, bool(args.trace), args.out_dir)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
