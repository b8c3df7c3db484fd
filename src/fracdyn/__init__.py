"""fracdyn: fractional (long-memory) open quantum dynamics.

Numerical library for power-law-memory relaxation of open quantum systems:
Mittag-Leffler special functions, completely monotone memory kernels with
sum-of-exponentials compression, GKSL (Lindblad) superoperators, fractional
Adams-Moulton propagation, Bochner-Phillips subordination (deterministic and
Monte-Carlo), the exactly solvable spin-boson pure-dephasing model, and a
fractional-relaxation fitting pipeline.  The ``fracdyn`` console script
exposes the reproduction commands.
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    DomainError,
    FracdynError,
    NonConvergenceError,
    NumericalInstabilityError,
    ValidationError,
)
from .fracsolve import (
    FracTrajectory,
    WeightScheme,
    corrector_weights,
    fam_solve,
    fam_solve_soe,
    ml_propagate,
    predictor_weights,
)
from .kernels import (
    KernelKind,
    SOEKernel,
    complete_monotonicity_probe,
    kernel_eval,
    soe_compress,
)
from .lindblad import (
    DensityMatrix,
    GKSLGenerator,
    Superoperator,
    build_superoperator,
    cptp_diagnostics,
    dephasing_qubit,
    density_from_json,
    density_to_json,
    generator_from_json,
    generator_to_json,
    plus_state,
    semigroup_apply,
    unvec,
    vec,
)
from .fitting import (
    FitResult,
    FitWindow,
    bath_correlation_time,
    default_fit_window,
    fit_fractional,
    lambda_from_point,
    local_order_estimate,
    rmse_objective,
)
from .specfun import FractionalOrder, gamma_fn, m_wright, mittag_leffler, ml_partial_sum
from .spinboson import (
    AsymptoticRegime,
    BathSpec,
    CoherenceSeries,
    asymptotic_Q,
    bath_correlation,
    dephasing_Q,
    exact_coherence,
    markov_coherence,
    markov_fit_rate,
    spectral_density,
    tcl_coherence,
)
from .subordination import (
    OperationalClock,
    TrajectoryEstimate,
    divisibility_defect,
    levy_density,
    sample_clock,
    subordinated_propagate,
    trajectory_estimate,
)

__all__ = [
    "__version__",
    "AccuracyError",
    "DomainError",
    "FracdynError",
    "NonConvergenceError",
    "NumericalInstabilityError",
    "ValidationError",
    "FractionalOrder",
    "gamma_fn",
    "mittag_leffler",
    "ml_partial_sum",
    "m_wright",
    "KernelKind",
    "SOEKernel",
    "kernel_eval",
    "soe_compress",
    "complete_monotonicity_probe",
    "DensityMatrix",
    "GKSLGenerator",
    "Superoperator",
    "build_superoperator",
    "cptp_diagnostics",
    "dephasing_qubit",
    "density_from_json",
    "density_to_json",
    "generator_from_json",
    "generator_to_json",
    "plus_state",
    "semigroup_apply",
    "vec",
    "unvec",
    "WeightScheme",
    "FracTrajectory",
    "predictor_weights",
    "corrector_weights",
    "fam_solve",
    "fam_solve_soe",
    "ml_propagate",
    "OperationalClock",
    "TrajectoryEstimate",
    "levy_density",
    "sample_clock",
    "subordinated_propagate",
    "trajectory_estimate",
    "divisibility_defect",
    "AsymptoticRegime",
    "BathSpec",
    "CoherenceSeries",
    "spectral_density",
    "dephasing_Q",
    "bath_correlation",
    "exact_coherence",
    "asymptotic_Q",
    "markov_fit_rate",
    "markov_coherence",
    "tcl_coherence",
    "FitResult",
    "FitWindow",
    "rmse_objective",
    "fit_fractional",
    "local_order_estimate",
    "lambda_from_point",
    "bath_correlation_time",
    "default_fit_window",
]
