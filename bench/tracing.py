"""Spans around the calls into each fracdyn module, installed from outside.

The tracer wraps a public function by its name in every ``fracdyn`` module
namespace that holds it (``fracdyn.fitting.mittag_leffler``,
``fracdyn.cli.fam_solve``, ...), so calls made inside the package are seen
without changing a file under ``src/``.  ``DensityMatrix`` is traced by
patching its ``__post_init__``: replacing the class name with a subclass
would break ``isinstance`` checks.

Each span records its name, start, end, parent span, the job it belongs to
and whether it raised.  Spans stay in memory; :func:`layer_metrics` reduces
them to the per-layer numbers of ``BENCHMARK.json`` and
:meth:`Tracer.write` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict, namedtuple
from typing import Callable, Dict, List, Optional, Tuple

# Traced functions: span name -> (module, attribute).  The span name is the
# layer (package module) followed by the public name.
TRACED = {
    "cli.main": ("fracdyn.cli", "main"),
    "specfun.mittag_leffler": ("fracdyn.specfun", "mittag_leffler"),
    "specfun.m_wright": ("fracdyn.specfun", "m_wright"),
    "spinboson.dephasing_Q": ("fracdyn.spinboson", "dephasing_Q"),
    "spinboson.exact_coherence": ("fracdyn.spinboson", "exact_coherence"),
    "spinboson.tcl_coherence": ("fracdyn.spinboson", "tcl_coherence"),
    "fitting.fit_fractional": ("fracdyn.fitting", "fit_fractional"),
    "subordination.subordinated_propagate":
        ("fracdyn.subordination", "subordinated_propagate"),
    "subordination.levy_density": ("fracdyn.subordination", "levy_density"),
    "subordination.trajectory_estimate":
        ("fracdyn.subordination", "trajectory_estimate"),
    "subordination.divisibility_defect":
        ("fracdyn.subordination", "divisibility_defect"),
    "fracsolve.fam_solve": ("fracdyn.fracsolve", "fam_solve"),
    "fracsolve.fam_solve_soe": ("fracdyn.fracsolve", "fam_solve_soe"),
    "fracsolve.ml_propagate": ("fracdyn.fracsolve", "ml_propagate"),
    "lindblad.build_superoperator": ("fracdyn.lindblad", "build_superoperator"),
    "kernels.soe_compress": ("fracdyn.kernels", "soe_compress"),
}
DENSITY_SPAN = "lindblad.DensityMatrix"


def _solve_tag(args, kwargs, result):
    gen = args[0] if args else kwargs["gen"]
    return ("scalar" if isinstance(gen, (int, float, complex)) else "matrix",
            len(result.states) - 1)


# What a span keeps of a call's arguments and result, for the ratios.
_TAGGERS: Dict[str, Callable] = {
    "spinboson.tcl_coherence": lambda a, k, r: len(r),
    "fitting.fit_fractional": lambda a, k, r: r.evaluations,
    "subordination.trajectory_estimate": lambda a, k, r: r.n_samples,
    "fracsolve.fam_solve": _solve_tag,
    "fracsolve.fam_solve_soe": _solve_tag,
    "kernels.soe_compress": lambda a, k, r: r.n_terms,
}


Span = namedtuple("Span", "id name start end parent job failed tag")


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job: Optional[str] = None
        self._job_stack: list = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name in every loaded ``fracdyn`` module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import fracdyn.lindblad as lindblad

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "fracdyn" or name.startswith("fracdyn."))]
        for span_name, (mod_name, attr) in TRACED.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(original, span_name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        cls = lindblad.DensityMatrix
        self._patch(cls, "__post_init__",
                    self._wrap(cls.__dict__["__post_init__"], DENSITY_SPAN))

    def uninstall(self) -> None:
        """Put every original function back, in reverse order."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key: str, wrapped) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapped)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------

    def job(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` as job ``name`` under a root span named "job".

        A span opened in a worker thread with no parent on its own thread
        takes as parent the innermost span open on the job's thread, so
        ``cli.main`` does not count its pool threads' work as its own.
        """
        self._job, self._job_stack = name, self._stack()
        try:
            return self._wrap(fn, "job")(*args)
        finally:
            self._job, self._job_stack = None, []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tagger = _TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            job_stack = stack or self._job_stack
            parent = job_stack[-1] if job_stack else None
            stack.append(sid)
            failed, tag = True, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                if not failed and tagger is not None:
                    tag = tagger(args, kwargs, result)
                self.spans.append(Span(sid, name, start, end, parent,
                                       self._job, failed, tag))
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as CSV: id,name,start,end,parent,job,failed."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,job,failed\n")
            for s in sorted(self.spans):
                fh.write(f"{s.id},{s.name},{s.start!r},{s.end!r},"
                         f"{s.parent or ''},{s.job},{int(s.failed)}\n")


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------

def _self_times(spans: List[Span]) -> Dict[int, float]:
    """Duration minus the union of the child spans' intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, lo, hi = 0.0, None, None
        for a, b in sorted(children.get(s.id, ())):
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: List[Span], jobs) -> Dict[str, float]:
    """Per-layer metrics over the spans of ``jobs`` (see BENCHMARK.json).

    ``fracsolve.ml_propagate.failed`` counts failed calls over every span,
    so that a job kept out of the timed set (the coherent ``subordinate``
    run) still shows its failure there.
    """
    jobs = set(jobs)
    failed_ml = sum(1 for s in spans
                    if s.name == "fracsolve.ml_propagate" and s.failed)
    spans = sorted(s for s in spans if s.job in jobs)
    self_s = _self_times(spans)
    # Names of each span's ancestors.  A parent starts, and so is numbered,
    # before its children; interning keeps one set per distinct path.
    above: Dict[int, frozenset] = {}
    interned: Dict[Tuple[frozenset, str], frozenset] = {}
    names = {s.id: s.name for s in spans}
    for s in spans:
        if s.parent in names:
            key = (above[s.parent], names[s.parent])
            if key not in interned:
                interned[key] = key[0] | {key[1]}
            above[s.id] = interned[key]
        else:
            above[s.id] = frozenset()
    # A span nested in a span of the same name adds no busy time of its own.
    outer = [s for s in spans if s.name not in above[s.id]]

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def total(name):
        return sum(s.end - s.start for s in outer if s.name == name)

    def self_total(name):
        return sum(self_s[s.id] for s in spans if s.name == name)

    def calls_under(name, ancestor):
        return sum(1 for s in spans if s.name == name and ancestor in above[s.id])

    def tags(name):
        return [s.tag for s in spans if s.name == name and s.tag is not None]

    def ratio(num, den):
        return num / den if den else 0.0

    def steps_per_s(name, kind=None):
        chosen = [s for s in outer if s.name == name and s.tag is not None
                  and (kind is None or s.tag[0] == kind)]
        return ratio(sum(s.tag[1] for s in chosen),
                     sum(s.end - s.start for s in chosen))

    evaluations = sum(tags("fitting.fit_fractional"))
    terms = tags("kernels.soe_compress")
    m = {
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_total("cli.main"),
        "specfun.mittag_leffler.calls": calls("specfun.mittag_leffler"),
        "specfun.mittag_leffler.total_s": total("specfun.mittag_leffler"),
        "specfun.m_wright.calls": calls("specfun.m_wright"),
        "specfun.m_wright.total_s": total("specfun.m_wright"),
        "spinboson.dephasing_Q.calls": calls("spinboson.dephasing_Q"),
        "spinboson.dephasing_Q.total_s": total("spinboson.dephasing_Q"),
        "spinboson.exact_coherence.total_s":
            total("spinboson.exact_coherence"),
        "spinboson.tcl_coherence.total_s": total("spinboson.tcl_coherence"),
        "spinboson.tcl_coherence.self_s":
            self_total("spinboson.tcl_coherence"),
        "spinboson.q_per_tcl_point": ratio(
            calls_under("spinboson.dephasing_Q", "spinboson.tcl_coherence"),
            sum(tags("spinboson.tcl_coherence"))),
        "fitting.fit_fractional.total_s": total("fitting.fit_fractional"),
        "fitting.fit_fractional.self_s": self_total("fitting.fit_fractional"),
        "fitting.evaluations": evaluations,
        "fitting.ml_calls_per_eval": ratio(
            calls_under("specfun.mittag_leffler", "fitting.fit_fractional"),
            evaluations),
        "subordination.subordinated_propagate.total_s":
            total("subordination.subordinated_propagate"),
        "subordination.subordinated_propagate.self_s":
            self_total("subordination.subordinated_propagate"),
        "subordination.quad_levels": ratio(
            calls_under("subordination.levy_density",
                        "subordination.subordinated_propagate"),
            calls("subordination.subordinated_propagate")),
        "subordination.levy_density.total_s":
            total("subordination.levy_density"),
        "subordination.trajectory_estimate.total_s":
            total("subordination.trajectory_estimate"),
        "subordination.trajectory_estimate.self_s":
            self_total("subordination.trajectory_estimate"),
        "subordination.samples_per_s": ratio(
            sum(tags("subordination.trajectory_estimate")),
            total("subordination.trajectory_estimate")),
        "subordination.divisibility_defect.total_s":
            total("subordination.divisibility_defect"),
        "fracsolve.fam_solve.total_s": total("fracsolve.fam_solve"),
        "fracsolve.fam_solve.self_s": self_total("fracsolve.fam_solve"),
        "fracsolve.fam_solve_soe.total_s": total("fracsolve.fam_solve_soe"),
        "fracsolve.fam_solve_soe.self_s": self_total("fracsolve.fam_solve_soe"),
        "fracsolve.steps_per_s.scalar_dense":
            steps_per_s("fracsolve.fam_solve", "scalar"),
        "fracsolve.steps_per_s.matrix_dense":
            steps_per_s("fracsolve.fam_solve", "matrix"),
        "fracsolve.steps_per_s.soe": steps_per_s("fracsolve.fam_solve_soe"),
        "fracsolve.ml_propagate.calls": calls("fracsolve.ml_propagate"),
        "fracsolve.ml_propagate.total_s": total("fracsolve.ml_propagate"),
        "fracsolve.ml_propagate.failed": failed_ml,
        "lindblad.DensityMatrix.calls": calls(DENSITY_SPAN),
        "lindblad.DensityMatrix.total_s": total(DENSITY_SPAN),
        "lindblad.build_superoperator.calls":
            calls("lindblad.build_superoperator"),
        "lindblad.build_superoperator.total_s":
            total("lindblad.build_superoperator"),
        "kernels.soe_compress.total_s": total("kernels.soe_compress"),
        "kernels.soe_terms": ratio(sum(terms), len(terms)),
    }
    return {k: float(v) for k, v in m.items()}
