"""The argument contract every public function shares (fracdyn.errors).

An order alpha outside (0, 1] is a DomainError wherever alpha is taken, and
a count that is not a whole number raises its site's error class instead
of being truncated.  A value that is not a real number raises the site's
error class too.  The alpha and option tables are checked against
``fracdyn.__all__``, so a public function added with an ``alpha``
parameter, or a public default added anywhere, must join them.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import fracdyn
from fracdyn import (
    AsymptoticRegime,
    BathSpec,
    DomainError,
    FitResult,
    FitWindow,
    FracTrajectory,
    FractionalOrder,
    OperationalClock,
    SOEKernel,
    TrajectoryEstimate,
    ValidationError,
    WeightScheme,
    asymptotic_Q,
    bath_correlation,
    build_superoperator,
    complete_monotonicity_probe,
    corrector_weights,
    cptp_diagnostics,
    default_fit_window,
    density_to_json,
    dephasing_Q,
    dephasing_qubit,
    divisibility_defect,
    exact_coherence,
    fam_solve,
    fam_solve_soe,
    fit_fractional,
    generator_to_json,
    kernel_eval,
    lambda_from_point,
    levy_density,
    local_order_estimate,
    markov_coherence,
    markov_fit_rate,
    m_wright,
    mittag_leffler,
    ml_partial_sum,
    ml_propagate,
    plus_state,
    predictor_weights,
    rmse_objective,
    sample_clock,
    soe_compress,
    spectral_density,
    subordinated_propagate,
    tcl_coherence,
    trajectory_estimate,
    unvec,
    vec,
)
from fracdyn.errors import _unit_interval
from fracdyn.lindblad import PAULI_X, PAULI_Z, DensityMatrix, GKSLGenerator

GEN = dephasing_qubit(1.0, 0.5)
RHO = plus_state()
KERNEL = soe_compress(0.5, 0.01, 10.0, 1e-6)
SERIES = exact_coherence(BathSpec(1.0, 0.5), 0.0, np.linspace(0.0, 10.0, 41))
WINDOW = FitWindow(1.0, 9.0)
GRID = np.geomspace(0.1, 10.0, 20)

# Every public callable that takes alpha, called with valid other arguments.
ALPHA_CALLS = {
    "FractionalOrder": lambda a: FractionalOrder(a),
    "mittag_leffler": lambda a: mittag_leffler(a, -1.0),
    "ml_partial_sum": lambda a: ml_partial_sum(a, -1.0, 10),
    "m_wright": lambda a: m_wright(a, 1.0),
    "SOEKernel": lambda a: SOEKernel(a, ((1.0, 0.0),), (0.1, 1.0), 1e-3),
    "kernel_eval": lambda a: kernel_eval("volterra", a, 1.0),
    "soe_compress": lambda a: soe_compress(a, 0.1, 10.0, 1e-6),
    "complete_monotonicity_probe":
        lambda a: complete_monotonicity_probe(a, "volterra", GRID, 2),
    "FracTrajectory": lambda a: FracTrajectory(
        a, 0.1, WeightScheme.StandardDFF, np.ones(3, dtype=complex)),
    "predictor_weights": lambda a: predictor_weights("standard_dff", a, 3),
    "corrector_weights": lambda a: corrector_weights("standard_dff", a, 3),
    "fam_solve": lambda a: fam_solve(1.0, a, 0.1, 10, 1.0),
    "fam_solve_soe": lambda a: fam_solve_soe(1.0, a, 0.1, 10, 1.0, KERNEL),
    "ml_propagate": lambda a: ml_propagate(GEN, a, 1.0, RHO),
    "OperationalClock": lambda a: OperationalClock(a, 1.0),
    "subordinated_propagate":
        lambda a: subordinated_propagate(GEN, a, 1.0, RHO),
    "trajectory_estimate":
        lambda a: trajectory_estimate(GEN, a, 1.0, RHO, PAULI_X, 10, 0),
    "divisibility_defect": lambda a: divisibility_defect(a, 1.0, 2.0, 1.0),
    "rmse_objective": lambda a: rmse_objective(a, 1.0, SERIES, WINDOW),
    "lambda_from_point": lambda a: lambda_from_point(a, 1.0, 0.5),
    "FitResult": lambda a: FitResult(a, 1.0, WINDOW, 0.1, 1, True),
}


def _takes_alpha(obj) -> bool:
    try:
        return "alpha" in inspect.signature(obj).parameters
    except (TypeError, ValueError):  # builtins without a signature
        return False


ALPHA_TAKERS = sorted(name for name in fracdyn.__all__
                      if callable(getattr(fracdyn, name))
                      and _takes_alpha(getattr(fracdyn, name)))


def test_alpha_table_is_every_public_alpha_callable():
    assert ALPHA_TAKERS == sorted(ALPHA_CALLS)


@pytest.mark.parametrize("name", ALPHA_TAKERS)
def test_alpha_table_calls_run_at_valid_alpha(name):
    ALPHA_CALLS[name](0.5)
    if name != "FractionalOrder":
        ALPHA_CALLS[name](FractionalOrder(0.5))


@pytest.mark.parametrize("bad", [0.0, 1.5, math.nan, math.inf, None, "abc"])
@pytest.mark.parametrize("name", ALPHA_TAKERS)
def test_alpha_outside_unit_interval_is_domain_error(name, bad):
    with pytest.raises(DomainError):
        ALPHA_CALLS[name](bad)


# Every public count: (call with the count, the site's error class).
COUNT_CALLS = {
    "fam_solve n_steps": (lambda n: fam_solve(1.0, 0.5, 0.01, n, 1.0),
                          DomainError),
    "fam_solve_soe n_steps":
        (lambda n: fam_solve_soe(1.0, 0.5, 0.01, n, 1.0, KERNEL), DomainError),
    "trajectory_estimate n_samples":
        (lambda n: trajectory_estimate(GEN, 0.5, 1.0, RHO, PAULI_X, n, 0),
         ValidationError),
    "sample_clock size":
        (lambda n: sample_clock(OperationalClock(0.5, 1.0),
                                np.random.default_rng(0), size=n),
         ValidationError),
    "ml_partial_sum n_terms": (lambda n: ml_partial_sum(0.5, -1.0, n),
                               DomainError),
    "predictor_weights n":
        (lambda n: predictor_weights("standard_dff", 0.5, n), ValidationError),
    "corrector_weights n":
        (lambda n: corrector_weights("standard_dff", 0.5, n), ValidationError),
}


@pytest.mark.parametrize("bad", [2.7, 100.9, 2.5, True, math.nan, "3"])
@pytest.mark.parametrize("site", sorted(COUNT_CALLS))
def test_count_that_is_not_whole_raises_site_error(site, bad):
    call, error = COUNT_CALLS[site]
    with pytest.raises(error, match="whole number"):
        call(bad)


@pytest.mark.parametrize("bad", [2**63, 1e300])
@pytest.mark.parametrize("site", sorted(COUNT_CALLS))
def test_count_above_array_size_raises_site_error(site, bad):
    # No array can have more elements than the largest intp.
    call, error = COUNT_CALLS[site]
    with pytest.raises(error, match="whole number"):
        call(bad)


@pytest.mark.parametrize("site", sorted(COUNT_CALLS))
def test_integral_float_count_is_the_int(site):
    call, _ = COUNT_CALLS[site]
    got, want = call(3.0), call(3)
    if isinstance(want, FracTrajectory):
        got, want = got.states, want.states
    elif isinstance(want, TrajectoryEstimate):
        got, want = (got.mean, got.stderr), (want.mean, want.stderr)
    assert np.array_equal(got, want)


# One site per argument helper, and each site that once let a non-number
# through: (call with the value, the site's error class, a valid value that
# is a whole number).  Every public plateau site reads None as "no
# plateau", so _unit_interval is called itself.
BATH = BathSpec(1.0, 0.5)
REAL_SITES = {
    "FractionalOrder": (lambda x: FractionalOrder(x), DomainError, 1),
    "_nonneg_float": (lambda x: fam_solve(1.0, 0.5, x, 10, 1.0).states,
                      DomainError, 1),
    "_unit_interval": (lambda x: _unit_interval(x, "plateau"),
                       ValidationError, 0),
    "_points": (lambda x: mittag_leffler(0.5, x), DomainError, -1),
    "divisibility_defect t":
        (lambda x: divisibility_defect(0.5, 1.0, x, 0.5), DomainError, 1),
    "divisibility_defect tau":
        (lambda x: divisibility_defect(0.5, 1.0, 2.0, x), DomainError, 1),
    "soe_compress t_min":
        (lambda x: soe_compress(0.5, x, 10.0, 1e-6).terms, DomainError, 1),
    "soe_compress t_max":
        (lambda x: soe_compress(0.5, 0.1, x, 1e-6).terms, DomainError, 1),
    "soe_compress tol":
        (lambda x: soe_compress(0.5, 0.1, 10.0, x).terms, DomainError, 1),
    "SOEKernel tol":
        (lambda x: SOEKernel(0.5, ((1.0, 0.0),), (0.1, 1.0), x).tol,
         ValidationError, 1),
    "default_fit_window end_factor":
        (lambda x: default_fit_window(BATH, x).t_end, ValidationError, 20),
    "markov_fit_rate window": (lambda x: markov_fit_rate(SERIES, (x, 9.0)),
                               ValidationError, 1),
    "dephasing_qubit epsilon":
        (lambda x: dephasing_qubit(x, 0.5).hamiltonian, DomainError, 1),
    "exact_coherence epsilon":
        (lambda x: exact_coherence(BATH, x, GRID).values, DomainError, 1),
    "markov_coherence epsilon":
        (lambda x: markov_coherence(0.1, x, GRID).values, DomainError, 1),
    "tcl_coherence epsilon":
        (lambda x: tcl_coherence(BATH, x, GRID).values, DomainError, 1),
}
EPSILON_SITES = sorted(site for site in REAL_SITES if "epsilon" in site)


@pytest.mark.parametrize("bad", [None, "abc", "1", True, np.True_, object()])
@pytest.mark.parametrize("helper", sorted(REAL_SITES))
def test_non_number_raises_site_error(helper, bad):
    call, error, _ = REAL_SITES[helper]
    with pytest.raises(error):
        call(bad)


@pytest.mark.parametrize("helper", sorted(REAL_SITES))
def test_numpy_real_scalars_and_0d_arrays_accepted(helper):
    call, _, value = REAL_SITES[helper]
    want = call(float(value))
    for same in (value, np.int64(value), np.float32(value),
                 np.float64(value), np.array(value), np.array(float(value))):
        assert np.array_equal(call(same), want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("site", EPSILON_SITES)
def test_non_finite_epsilon_raises(site, bad):
    call, error, _ = REAL_SITES[site]
    with pytest.raises(error, match="finite"):
        call(bad)


@pytest.mark.parametrize("bad", ["x", None, True, [1.0, 0.0], [["a", "b"],
                                                                ["c", "d"]]])
def test_observable_that_is_not_a_matrix_of_numbers_raises(bad):
    with pytest.raises(ValidationError):
        trajectory_estimate(GEN, 0.5, 1.0, RHO, bad, 10, 0)


# Each argument that once let a value of the wrong kind escape as a bare
# builtin error: (call with such a value, the site's error class).
WRONG_KIND_SITES = {
    "cptp_diagnostics generator":
        (lambda: cptp_diagnostics(dephasing_qubit(0.3, 0.5), 1.0),
         ValidationError),
    "cptp_diagnostics str": (lambda: cptp_diagnostics("x"), ValidationError),
    "complete_monotonicity_probe grid":
        (lambda: complete_monotonicity_probe(0.5, "volterra",
                                             ["a", "b", "c"], 1),
         DomainError),
    "lambda_from_point u_star str":
        (lambda: lambda_from_point(0.5, 1.0, "x"), DomainError),
    "lambda_from_point u_star None":
        (lambda: lambda_from_point(0.5, 1.0, None), DomainError),
    "markov_fit_rate window short":
        (lambda: markov_fit_rate(SERIES, (1.0,)), ValidationError),
    "markov_fit_rate window None":
        (lambda: markov_fit_rate(SERIES, None), ValidationError),
    "SOEKernel term":
        (lambda: SOEKernel(0.5, ((1.0, "x"),), (1.0, 2.0), 1e-8),
         ValidationError),
    "SOEKernel valid_range":
        (lambda: SOEKernel(0.5, ((1.0, 1.0),), ("a", "b"), 1e-8),
         ValidationError),
    "fit_fractional init":
        (lambda: fit_fractional(SERIES, WINDOW, init=("a", 1)),
         ValidationError),
    "_points bool": (lambda: mittag_leffler(0.5, [True, 1.0]), DomainError),
    "_points ragged":
        (lambda: mittag_leffler(0.5, [[1.0], [1.0, 2.0]]), DomainError),
    "exact_coherence grid":
        (lambda: exact_coherence(BATH, 0.0, "x"), ValidationError),
    "markov_coherence grid":
        (lambda: markov_coherence(0.1, 0.0, "x"), ValidationError),
    "tcl_coherence grid":
        (lambda: tcl_coherence(BATH, 0.0, [True, 2.0]), ValidationError),
    "rmse_objective window tuple":
        (lambda: rmse_objective(0.5, 1.0, SERIES, (1.0, 9.0)), ValidationError),
    "rmse_objective window str":
        (lambda: rmse_objective(0.5, 1.0, SERIES, "x"), ValidationError),
    "rmse_objective target":
        (lambda: rmse_objective(0.5, 1.0, "x", WINDOW), ValidationError),
    "fit_fractional window tuple":
        (lambda: fit_fractional(SERIES, (1.0, 9.0)), ValidationError),
    "fit_fractional window str":
        (lambda: fit_fractional(SERIES, "x"), ValidationError),
    "fit_fractional target":
        (lambda: fit_fractional("x", WINDOW), ValidationError),
    "fit_fractional bath":
        (lambda: fit_fractional(SERIES, WINDOW, plateau="auto", bath="x"),
         ValidationError),
    "local_order_estimate target":
        (lambda: local_order_estimate("x"), ValidationError),
    "markov_fit_rate series":
        (lambda: markov_fit_rate("x", (1.0, 9.0)), ValidationError),
    "default_fit_window bath":
        (lambda: default_fit_window("x"), ValidationError),
    "GKSLGenerator ragged hamiltonian":
        (lambda: GKSLGenerator([[1, 2], [3]]), ValidationError),
    "DensityMatrix ragged":
        (lambda: DensityMatrix([[1, 0], [0]]), ValidationError),
    "trajectory_estimate ragged observable":
        (lambda: trajectory_estimate(GEN, 0.5, 1.0, RHO, [[1, 0], [0]], 10, 0),
         ValidationError),
    "GKSLGenerator channels not pairs":
        (lambda: GKSLGenerator(PAULI_Z, 5), ValidationError),
    "GKSLGenerator channel without rate":
        (lambda: GKSLGenerator(PAULI_Z, ((PAULI_Z,),)), ValidationError),
    "exact_coherence bath":
        (lambda: exact_coherence("x", 0.0, GRID), ValidationError),
    "spectral_density bath":
        (lambda: spectral_density("x", 1.0), ValidationError),
    "dephasing_Q bath": (lambda: dephasing_Q("x", 1.0), ValidationError),
    "bath_correlation bath":
        (lambda: bath_correlation(None, 1.0), ValidationError),
    "tcl_coherence bath":
        (lambda: tcl_coherence("x", 0.0, GRID), ValidationError),
    "asymptotic_Q bath":
        (lambda: asymptotic_Q("x", 1.0, AsymptoticRegime.ShortTime),
         ValidationError),
    "sample_clock rng_stream":
        (lambda: sample_clock(OperationalClock(0.5, 1.0), "x"),
         ValidationError),
    "sample_clock clock":
        (lambda: sample_clock("x", np.random.default_rng(0)), ValidationError),
    "levy_density clock": (lambda: levy_density("x", 1.0), ValidationError),
    "density_to_json str": (lambda: density_to_json("x"), ValidationError),
    "generator_to_json str":
        (lambda: generator_to_json("x"), ValidationError),
    "build_superoperator str":
        (lambda: build_superoperator("x"), ValidationError),
    "unvec dim str": (lambda: unvec(vec(RHO.entries), "x"), ValidationError),
    "unvec dim float":
        (lambda: unvec(vec(RHO.entries), 2.5), ValidationError),
}


@pytest.mark.parametrize("site", sorted(WRONG_KIND_SITES))
def test_value_of_the_wrong_kind_raises_site_error(site):
    call, error = WRONG_KIND_SITES[site]
    with pytest.raises(error):
        call()


# Every option of the public API: each defaulted parameter of a function
# and each defaulted field of a dataclass in fracdyn.__all__, with its
# default.  An option that no caller sets belongs in a module constant.
OPTIONS = {
    ("BathSpec", "beta"): math.inf,
    ("BathSpec", "omega_c"): 1.0,
    ("FitResult", "u_inf"): None,
    ("GKSLGenerator", "channels"): (),
    ("complete_monotonicity_probe", "negate"): False,
    ("cptp_diagnostics", "u"): None,
    ("default_fit_window", "end_factor"): 20.0,
    ("fam_solve", "scheme"): WeightScheme.StandardDFF,
    ("fam_solve_soe", "scheme"): WeightScheme.StandardDFF,
    ("fit_fractional", "bath"): None,
    ("fit_fractional", "init"): None,
    ("fit_fractional", "max_evaluations"): 10000,
    ("fit_fractional", "plateau"): None,
    ("lambda_from_point", "u_inf"): None,
    ("local_order_estimate", "plateau"): None,
    ("rmse_objective", "u_inf"): None,
    ("sample_clock", "size"): None,
}


def test_option_table_is_every_public_option():
    found = {}
    for name in fracdyn.__all__:
        obj = getattr(fracdyn, name)
        if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
            for param in inspect.signature(obj).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found[(name, param.name)] = param.default
    assert found == OPTIONS
