"""Run one fracdyn benchmark workload and print its metrics.

    python3 bench/run.py --workload fit --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; nothing needs installing.  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Before it
come the environment and a table of every metric with its unit.
``--workload all`` runs the four workloads in turn.

Each worker (``workloads.py``) is a fresh interpreter that makes one cold
and one warm pass over the workload's jobs; ``setup_s`` is the median over
fresh interpreters of the time ``import fracdyn.cli`` takes (see
``measure``).  Every time metric is in reference seconds: wall time scaled
by a calibration unit timed all through it, so that the drifting speed of
a shared machine cancels (see ``calibrate.py``).  Scratch files go
under ``.bench_out/`` in the checkout; the spans of a traced run and the
full result of every run are kept there.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import calibrate
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out"
# Import probes per run, at least; one runs before each worker.
SETUP_SAMPLES = 5
# A worker ends well within this: the longest, a traced `fit`, takes about
# 45 s on a 2-core machine.
WORKER_TIMEOUT_S = 120
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import fracdyn.cli; "
                 "print(repr(time.perf_counter() - t))")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str, seed: int, threads: int) -> dict:
    """Where and how the numbers were taken."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba": importlib.util.find_spec("numba") is not None,
        "cpu_count": os.cpu_count(),
        # Thread pools, and whether imports can cache bytecode (setup_s).
        "env_vars": {k: os.environ[k] for k in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")
                     if k in os.environ},
        "workload": workload,
        "threads": threads,
        "seed": seed,
    }


def import_seconds(env: Dict[str, str]) -> float:
    """Time a fresh interpreter takes to ``import fracdyn.cli``."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise BenchError(f"import fracdyn.cli failed:\n{out.stderr}")
    return float(out.stdout.strip().splitlines()[-1])


def run_worker(workload: str, seed: int, trace: bool, env: Dict[str, str],
               scratch: Path) -> dict:
    """Run ``workloads.py`` in a fresh interpreter and return its result."""
    result_path = scratch / "result.json"
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--out-dir", str(scratch),
           "--result", str(result_path)]
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=WORKER_TIMEOUT_S)
    if out.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker for {workload!r} exited with "
                         f"{out.returncode}:\n{out.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def typical_pass(passes: List[Dict[str, float]]) -> float:
    """Sum over the jobs of each job's median time across ``passes``.

    Slowdowns on a shared machine come in episodes of a few seconds; a
    per-job median drops the job runs an episode hit, where the median of
    whole-pass sums would keep them.
    """
    return sum(statistics.median(p[job] for p in passes) for job in passes[0])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> dict:
    """One run of one workload: metrics named as in BENCHMARK.json.

    Untraced, fresh workers (each one cold and one warm pass, preceded by
    one import probe) run one after another while the next one, and the
    import probes still owed, are expected to end within ``seconds``; at
    least one runs.  Traced, one worker runs and adds its traced pass.
    """
    env = _child_env()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    workers, imports = [], []

    def probe() -> float:
        began = time.perf_counter()
        imports.append(import_seconds(env))
        return time.perf_counter() - began

    try:
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            probe_s = 0.0 if trace else probe()
            out_dir = scratch / f"worker{len(workers)}"
            workers.append(run_worker(workload, seed, trace, env, out_dir))
            now = time.perf_counter()
            owed = max(SETUP_SAMPLES - len(imports) - 1, 0) * probe_s
            if trace or now - start + (now - began) + owed > seconds:
                break
        if trace:
            values = workers[0]["layers"]
            shutil.copyfile(out_dir / "spans.csv",
                            SCRATCH / f"spans-{workload}.csv")
        else:
            while len(imports) < SETUP_SAMPLES:
                probe()
            values = {
                "wall_s": typical_pass([w["warm"] for w in workers]),
                "cold_s": typical_pass([w["cold"] for w in workers]),
                # An import compiles and runs Python code; the probes run
                # in a child no sampler can interrupt, so they are scaled by
                # the workers' mean ``python`` part.
                "setup_s": calibrate.scaled(
                    statistics.median(imports),
                    statistics.mean(units["python"] for w in workers
                                    for units in w["unit_s"]),
                    ("python",)),
                "peak_rss_mb": statistics.median(w["peak_rss_mb"]
                                                 for w in workers),
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        if m["name"] not in values:
            raise BenchError(f"{workload}: no value for metric {m['name']!r}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    failed = sum(w["failed"] for w in workers)
    report = {
        "correct": failed == 0,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": failed,
        "metrics": metrics,
    }
    details = {"environment": environment(workload, seed,
                                          workers[0]["threads"]),
               "setup_samples": imports, "workers": workers, "result": report}
    if not trace:
        # The same figures in wall-clock seconds, for the table only.
        details["wall_clock"] = {
            "wall_s": typical_pass([w["warm_wall"] for w in workers]),
            "cold_s": typical_pass([w["cold_wall"] for w in workers]),
            "setup_s": statistics.median(imports),
        }
    (SCRATCH / f"result-{workload}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=1), encoding="utf-8")
    return details


def _print_table(workload: str, details: dict) -> None:
    report, workers = details["result"], details["workers"]
    print(f"== {workload}: {report['attempted']} jobs run, "
          f"{report['failed']} failed "
          f"(failed_frac {report['failed'] / report['attempted']:.3g}); "
          f"{len(workers)} worker(s), each 1 cold + 1 warm pass"
          + (" + 1 plain + 1 traced" if "layers" in workers[0] else ""))
    for name, m in report["metrics"].items():
        print(f"   {name:48s} {m['value']:>14.6g} {m['unit']}")
    for name, value in details.get("wall_clock", {}).items():
        print(f"   {name + ' (wall clock)':48s} {value:>14.6g} s")
    for problem in (p for w in workers for p in w["problems"]):
        print(f"   CHECK FAILED: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "fracdyn" / "cli.py",
                           ROOT / "demos" / "configs",
                           ROOT / "demos" / "output",
                           ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        print("bench: not a fracdyn source checkout, missing: "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing),
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds,
                                    bool(args.trace), spec)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    for name in names:
        print(json.dumps({"environment": results[name]["environment"]}))
        _print_table(name, results[name])
    reports = [results[name]["result"] for name in names]
    if len(names) == 1:
        final = reports[0]
    else:
        final = {
            "correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": {f"{name}.{k}": v for name, r in zip(names, reports)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
