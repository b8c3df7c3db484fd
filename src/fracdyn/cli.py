"""Reproduction front-end: declarative experiment configs in, CSV/JSON out.

Each run takes a JSON config (one experiment per file, discriminated by a
``command`` key), checks each key against the command's field table with the
package's own argument helpers (``fracdyn.errors``), executes the
corresponding pipeline, and writes CSV artifacts whose comment header
records the config digest, artifact version, and column schema.  Identical
config and seed produce byte-identical output, regardless of ``--threads``.

Exit codes: 0 success, 2 config error, 3 numerical-accuracy failure,
4 non-convergence (fit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cache, partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from ._table import write_csv
from .errors import (AccuracyError, DomainError, NonConvergenceError,
                     NumericalInstabilityError, ValidationError, _count,
                     _finite_float, _nonneg_float, _order, _real,
                     _unit_interval)
from .fitting import FitWindow, fit_fractional
from .fracsolve import (_trajectory_table, fam_solve, fam_solve_soe,
                        ml_propagate)
from .kernels import soe_compress
from .lindblad import (PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix,
                       GKSLGenerator, build_superoperator, density_from_json,
                       dephasing_qubit, generator_from_json, plus_state)
from .spinboson import (AsymptoticRegime, BathSpec, asymptotic_Q,
                        dephasing_Q, exact_coherence, markov_coherence,
                        markov_fit_rate, tcl_coherence)
from .subordination import (_clock_rule, divisibility_defect,
                            subordinated_propagate, trajectory_estimate)

__all__ = ["main"]

_OUT_DIR_ENV = "FRACDYN_OUT_DIR"

_OBSERVABLES = {"sigma_x": PAULI_X, "sigma_y": PAULI_Y, "sigma_z": PAULI_Z}

_REGIMES = {
    "short_time": AsymptoticRegime.ShortTime,
    "sub_ohmic": AsymptoticRegime.SubOhmic,
    "ohmic": AsymptoticRegime.Ohmic,
    "super_ohmic": AsymptoticRegime.SuperOhmic,
}


class ConfigError(Exception):
    """Configuration rejected before execution (exit code 2)."""


# ---------------------------------------------------------------------------
# Config fields
# ---------------------------------------------------------------------------

def _choice(*options: str):
    """Check: one of the exact strings ``options``."""
    def check(value) -> None:
        if not (isinstance(value, str) and value in options):
            raise ConfigError(
                f"value must be one of {sorted(options)}, got {value!r}")
    return check


def _above_zero(value) -> None:
    """Check: a number > 0, inf included (zero temperature, an open window
    end, a tolerance that asks for nothing, a step longer than the run)."""
    if not _real(value) > 0.0:
        raise ConfigError(f"value must be a number > 0, got {value!r}")


def _object(value) -> None:
    if not isinstance(value, dict):
        raise ConfigError(f"value must be an object, got {value!r}")


def _steps(value) -> None:
    """Check: two or more step sizes, each > 0 (inf is one step)."""
    if not isinstance(value, list) or len(value) < 2:
        raise ConfigError(
            f"value must be a list of 2 or more steps, got {value!r}")
    for h in value:
        _above_zero(h)


def _fraction(value) -> None:
    """Check: a number in (0, 1)."""
    if _unit_interval(value, "value") == 0.0:
        raise ConfigError(f"value must lie in (0, 1), got {value!r}")


_POSITIVE = partial(_nonneg_float, name="value", strict=True)
_NONNEG = partial(_nonneg_float, name="value")
_EPSILON = partial(_finite_float, name="value")

# Each command's keys.  A key maps to its check: a nested table, or a
# callable that raises on a bad value.  A key that may be left out maps to
# (check, default); _check writes the default into the config, so the
# commands read it and the digest covers it.  A key ending in "?" has no
# default: whether it is needed depends on other keys.
_BATH = {"eta": _POSITIVE, "chi": _POSITIVE, "omega_c": (_POSITIVE, 1.0),
         "beta": (lambda v: None if v == "inf" else _above_zero(v), "inf")}
_GRID = {"t_min": _NONNEG, "t_max": _POSITIVE,
         "n_points": partial(_count, name="value", minimum=1),
         "spacing": (_choice("linear", "log"), "linear")}
_WINDOW = {"t_start": _POSITIVE, "t_end": _above_zero}
_FIELDS = {
    "exact": {"command": _choice("exact"), "bath": _BATH, "grid": _GRID,
              "regime": _choice(*_REGIMES)},
    "markov": {"command": _choice("markov"), "bath": _BATH, "grid": _GRID,
               "window": _WINDOW, "epsilon": (_EPSILON, 0.0)},
    "fracfit": {"command": _choice("fracfit"), "bath": _BATH, "grid": _GRID,
                "window": _WINDOW, "epsilon": (_EPSILON, 0.0),
                "plateau": (lambda v: v in (None, "auto")
                            or _unit_interval(v, "value"), None)},
    "subordinate": {"command": _choice("subordinate"), "alpha": _order,
                    "gamma": (_POSITIVE, 1.0), "epsilon": (_EPSILON, 0.0),
                    "grid": _GRID,
                    "n_samples": partial(_count, name="value", minimum=2),
                    "seed": (partial(_count, name="value"), 0),
                    "observable": (_choice(*_OBSERVABLES), "sigma_x"),
                    "divisibility?": {"lam": _POSITIVE,
                                      "tau_fraction": (_fraction, 0.5)}},
    "solve": {"command": _choice("solve"), "generator": _object,
              "init?": _object, "alpha": _order, "h?": _POSITIVE,
              "n_steps?": partial(_count, name="value", minimum=1),
              "scheme": (_choice("standard_dff", "paper_printed"),
                         "standard_dff"),
              "history": (_choice("dense", "soe"), "dense"),
              "soe_tol": (_above_zero, 1e-8),
              "mode": (_choice("trajectory", "convergence"), "trajectory"),
              "horizon": (_POSITIVE, 1.0), "h_values?": _steps},
}


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    command = doc.get("command")
    if not isinstance(command, str) or command not in _FIELDS:
        raise ConfigError(
            f"$.command: must be one of {sorted(_FIELDS)}, got {command!r}"
        )
    _check(doc, _FIELDS[command], "$")
    return doc


def _check(doc: dict, fields: dict, path: str) -> None:
    """Write each default of ``fields`` that ``doc`` leaves out into it,
    nested tables included; ConfigError "<path>.<key>: ..." for the first
    unknown key, missing required key or refused value."""
    for key in doc:
        if key not in fields and f"{key}?" not in fields:
            raise ConfigError(f"{path}.{key}: unknown key")
    for spec, check in fields.items():
        key = spec.rstrip("?")
        where = f"{path}.{key}"
        if isinstance(check, tuple):
            check, default = check
            doc.setdefault(key, default)
        if key not in doc:
            if key == spec:
                raise ConfigError(f"{where}: required")
            continue
        try:  # a nested table's value must be an object first
            (_object if isinstance(check, dict) else check)(doc[key])
        except (ConfigError, DomainError, ValidationError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if isinstance(check, dict):
            _check(doc[key], check, where)


def _config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _build_bath(cfg: dict) -> BathSpec:
    beta = cfg["beta"]
    return BathSpec(eta=cfg["eta"], chi=cfg["chi"], omega_c=cfg["omega_c"],
                    beta=math.inf if beta == "inf" else float(beta))


def _build_grid(cfg: dict) -> np.ndarray:
    t_min, t_max = float(cfg["t_min"]), float(cfg["t_max"])
    n = int(cfg["n_points"])
    if not t_max > t_min:
        raise ConfigError("$.grid: t_max must exceed t_min")
    if cfg["spacing"] == "log":
        if t_min <= 0.0:
            raise ConfigError("$.grid: log spacing requires t_min > 0")
        return np.geomspace(t_min, t_max, n)
    return np.linspace(t_min, t_max, n)


def _resolve_out(out: str) -> Path:
    path = Path(out)
    override = os.environ.get(_OUT_DIR_ENV)
    if override and not path.is_absolute():
        path = Path(override) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _emit_csv(path: Path, digest: str, columns: Sequence[str], rows,
              extra_comments: Sequence[str] = ()) -> None:
    """Write ``rows`` under the digest, version, ``extra_comments`` and columns."""
    write_csv(path, columns, rows,
              [f"config_digest: {digest}", f"artifact: fracdyn {__version__}",
               *extra_comments, f"columns: {','.join(columns)}"])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_exact(config: dict, out: Path, digest: str) -> int:
    bath = _build_bath(config["bath"])
    grid = _build_grid(config["grid"])
    regime = _REGIMES[config["regime"]]
    q = dephasing_Q(bath, grid)
    q_asym = np.empty_like(q)
    for i, t in enumerate(grid):
        if t == 0.0:
            if regime in (AsymptoticRegime.Ohmic, AsymptoticRegime.SuperOhmic):
                raise ConfigError(
                    "$.grid: t=0 is outside this regime's asymptote; "
                    "use t_min > 0"
                )
            q_asym[i] = 0.0
        else:
            q_asym[i] = asymptotic_Q(bath, float(t), regime)
    # The least-squares amplitude of q on q_asym, with q_asym scaled by a
    # power of two to near 1 so that neither dot product leaves the range
    # of a double; the scaling is exact.
    exponent = math.frexp(float(np.max(np.abs(q_asym))))[1]
    scaled = np.ldexp(q_asym, -exponent)
    denom = float(np.dot(scaled, scaled))
    try:
        prefactor = (math.ldexp(float(np.dot(q, scaled)) / denom, -exponent)
                     if denom > 0.0 else 1.0)
    except OverflowError:
        prefactor = math.inf
    if not math.isfinite(prefactor):
        raise DomainError(
            f"amplitude_prefactor is {prefactor!r}: Q or its asymptote is "
            "out of range on this grid")
    table = np.array([(t, qt, math.exp(-qt), qa, math.exp(-qa)) for t, qt, qa
                      in zip(grid.tolist(), q.tolist(),
                             (prefactor * q_asym).tolist())])
    _emit_csv(out, digest, ["t", "Q", "absu", "Q_asym", "absu_asym"], table,
              extra_comments=[f"amplitude_prefactor: {prefactor!r}"])
    return 0


def _cmd_markov(config: dict, out: Path, digest: str) -> int:
    bath = _build_bath(config["bath"])
    grid = _build_grid(config["grid"])
    epsilon = float(config["epsilon"])
    window = (config["window"]["t_start"], config["window"]["t_end"])
    exact = exact_coherence(bath, epsilon, grid)
    gamma = markov_fit_rate(exact, window)
    markov = markov_coherence(gamma, epsilon, grid)
    tcl = tcl_coherence(bath, epsilon, grid)
    abs_exact = np.abs(exact.values)
    abs_markov = np.abs(markov.values)
    abs_tcl = np.abs(tcl.values)
    table = np.column_stack((grid, exact.values.real, exact.values.imag,
                             abs_exact, abs_markov, abs_tcl,
                             np.abs(abs_markov - abs_exact),
                             np.abs(abs_tcl - abs_exact)))
    _emit_csv(out, digest,
              ["t", "re_u_exact", "im_u_exact", "abs_u_exact",
               "abs_u_markov", "abs_u_tcl", "dev_markov", "dev_tcl"],
              table, extra_comments=[f"gamma: {gamma!r}"])
    return 0


def _cmd_fracfit(config: dict, out: Path, digest: str) -> int:
    bath = _build_bath(config["bath"])
    grid = _build_grid(config["grid"])
    epsilon = float(config["epsilon"])
    window = FitWindow(config["window"]["t_start"], config["window"]["t_end"])
    plateau = config["plateau"]
    exact = exact_coherence(bath, epsilon, grid)
    result = fit_fractional(exact, window, plateau=plateau, bath=bath)
    model = result.model(grid)
    abs_exact = np.abs(exact.values)
    table = np.column_stack((grid, abs_exact, model,
                             np.abs(model - abs_exact)))
    _emit_csv(out, digest,
              ["t", "abs_u_exact", "abs_u_fit", "deviation"], table)
    json_path = out.with_suffix(".json")
    with open(json_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(result.to_json())
        fh.write("\n")
    if not result.converged:
        print("fracfit: optimizer did not converge; best-so-far written",
              file=sys.stderr)
        return 4
    return 0


def _cmd_subordinate(config: dict, out: Path, digest: str,
                     threads: int) -> int:
    alpha = float(config["alpha"])
    # A run builds its own quadrature rules, as a fresh process would, so
    # that its cost and its trace do not depend on earlier runs in the
    # process; its rows then share them.
    _clock_rule.cache_clear()
    # One superoperator for every row and route.
    flow = build_superoperator(
        dephasing_qubit(float(config["epsilon"]), float(config["gamma"])))
    init = plus_state()
    obs = _OBSERVABLES[config["observable"]]
    grid = _build_grid(config["grid"])
    n_samples = int(config["n_samples"])
    seed = int(config["seed"])
    obs0 = float(np.real(np.trace(obs @ init.entries)))

    def compute_row(i: int):
        t = float(grid[i])
        if t == 0.0:
            return (t, obs0, obs0, obs0, 0.0, n_samples, seed)
        rho_quad = subordinated_propagate(flow, alpha, t, init)
        quad = float(np.real(np.trace(obs @ rho_quad.entries)))
        rho_ml = ml_propagate(flow, alpha, t, init)
        ml = float(np.real(np.trace(obs @ rho_ml.entries)))
        if alpha == 1.0:
            # Degenerate clock u = t: every trajectory yields the
            # semigroup value, so the estimator is exact with zero spread.
            return (t, quad, ml, ml, 0.0, n_samples, seed + i)
        est = trajectory_estimate(flow, alpha, t, init, obs, n_samples,
                                  seed + i)
        return (t, quad, ml, est.mean, est.stderr, n_samples, seed + i)

    # Row i's samples come in fixed 4096-sample blocks, block b drawn from
    # SeedSequence([seed + i, b]) (see trajectory_estimate), so each row is
    # a pure function of (config, seed, row index): thread count cannot
    # change the output bytes.
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        rows = list(pool.map(compute_row, range(grid.size)))
    _emit_csv(out, digest,
              ["t", "obs_quad", "obs_ml", "mc_mean", "mc_stderr",
               "n_samples", "seed"], rows)

    if "divisibility" in config:
        block = config["divisibility"]
        lam = float(block["lam"])
        frac = float(block["tau_fraction"])
        div_rows = [(t, divisibility_defect(alpha, lam, float(t),
                                            frac * float(t)))
                    for t in grid if t > 0.0]
        div_path = out.with_name(out.stem + "_divisibility" + out.suffix)
        _emit_csv(div_path, digest, ["t", "defect"], div_rows,
                  extra_comments=[f"lam: {lam!r}",
                                  f"tau_fraction: {frac!r}"])
    return 0


def _solve_init(config: dict, gen: GKSLGenerator) -> DensityMatrix:
    if "init" in config:
        return density_from_json(config["init"])
    if gen.dim == 2:
        return plus_state()
    raise ConfigError("$.init: required when the generator dimension is not 2")


def _cmd_solve(config: dict, out: Path, digest: str) -> int:
    gen = generator_from_json(config["generator"])
    init = _solve_init(config, gen)
    alpha = float(config["alpha"])
    mode = config["mode"]

    if mode == "convergence":
        if "h_values" not in config:
            raise ConfigError("$.h_values: required in convergence mode")
        horizon = float(config["horizon"])
        steps = [max(1, int(round(horizon / float(h))))
                 for h in config["h_values"]]
        if len(set(steps)) < len(steps):
            raise ConfigError(
                f"$.h_values: step counts {steps} over horizon {horizon!r} "
                "repeat; each h must give its own step count")
        reference = ml_propagate(gen, alpha, horizon, init).entries
        rows = []
        for n in steps:
            h_eff = horizon / n
            traj = fam_solve(gen, alpha, h_eff, n, init,
                             scheme=config["scheme"])
            err = float(np.max(np.abs(traj.final().entries - reference)))
            # The observed order between consecutive runs; undefined on the
            # first row and where an error is exactly 0.
            order = ""
            if rows and rows[-1][1] > 0.0 and err > 0.0:
                h_prev, e_prev = rows[-1][:2]
                order = math.log(e_prev / err) / math.log(h_prev / h_eff)
            rows.append((h_eff, err, order))
        _emit_csv(out, digest, ["h", "error", "order"], rows,
                  extra_comments=[f"horizon: {horizon!r}"])
        return 0

    if "h" not in config or "n_steps" not in config:
        raise ConfigError("$.h and $.n_steps: required in trajectory mode")
    h, n_steps = float(config["h"]), int(config["n_steps"])
    if config["history"] == "soe":
        if config["scheme"] != "standard_dff":
            raise ConfigError("$.scheme: the soe history takes standard_dff only")
        kernel = soe_compress(alpha, h, h * n_steps, float(config["soe_tol"]))
        traj = fam_solve_soe(gen, alpha, h, n_steps, init, kernel)
    else:
        traj = fam_solve(gen, alpha, h, n_steps, init,
                         scheme=config["scheme"])
    _emit_csv(out, digest, *_trajectory_table(traj))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = """\
commands:
  exact        exact dephasing curve with asymptote columns
  markov       constant-rate fit vs time-local vs exact curves
  fracfit      fractional (alpha, lambda) fit artifacts
  subordinate  subordination validation: quadrature/ML/Monte-Carlo
  solve        fractional Adams-Moulton run on a generator JSON
"""


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was."""
    parser = argparse.ArgumentParser(
        prog="fracdyn",
        description="Fractional open-quantum-dynamics reproduction runner.",
        epilog=_COMMANDS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_FIELDS,
                        help="the experiment to run; the config's "
                             "'command' must name it")
    parser.add_argument("--config", required=True,
                        help="path to the experiment JSON")
    parser.add_argument("--out", required=True,
                        help=f"output CSV path (${_OUT_DIR_ENV} prefixes "
                             "relative paths)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (subordinate only)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for the Monte-Carlo rows")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if config["command"] != args.command:
            raise ConfigError(
                f"$.command: config says {config['command']!r} but the "
                f"{args.command!r} subcommand was invoked"
            )
        if args.seed is not None:
            if config["command"] != "subordinate":
                raise ConfigError("--seed applies to subordinate runs only")
            if args.seed < 0:
                raise ConfigError("--seed must be >= 0")
            config["seed"] = int(args.seed)
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        digest = _config_digest(config)
        out = _resolve_out(args.out)
        if config["command"] == "exact":
            return _cmd_exact(config, out, digest)
        if config["command"] == "markov":
            return _cmd_markov(config, out, digest)
        if config["command"] == "fracfit":
            return _cmd_fracfit(config, out, digest)
        if config["command"] == "subordinate":
            return _cmd_subordinate(config, out, digest, args.threads)
        return _cmd_solve(config, out, digest)
    except (ConfigError, ValidationError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A config whose arrays cannot be allocated (numpy refuses at once).
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, NumericalInstabilityError) as exc:
        print(f"numerical-accuracy failure: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
