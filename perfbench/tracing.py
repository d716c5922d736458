"""Span tracing at rdcert module boundaries, installed from outside the package.

A :class:`Tracer` replaces selected rdcert functions, in every rdcert module
that binds them, with wrappers that record one span per call: name, start,
end, parent span and job id.  Spans nest strictly (one thread, synchronous
calls), so each span's self time is its duration minus the durations of its
direct children; the sum of all self times inside a job equals the job's root
span.  Spans are kept in memory and written out by :meth:`Tracer.write`.

Nothing here edits rdcert's source: :meth:`Tracer.install` swaps module
attributes and :meth:`Tracer.uninstall` puts the originals back, so untraced
jobs run the program exactly as shipped.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

# Root spans are named "job.<workload>"; their self time is the job's time
# outside every traced rdcert layer, reported as cli.unaccounted_s.
ROOT_LAYER = "job"


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# Hooks turn a finished call into counts.  Each gets (tracer, args, kwargs,
# result) and is only called when the wrapped function returned normally.

def _count_steps(tr, args, kwargs, traj):
    sys_spec = args[0]
    steps = len(traj.times) - 1
    tr.count("solver.steps", steps)
    tr.count("solver.node_steps", steps * sys_spec.grid.n * sys_spec.kinetics.n_components)


def _count_blowup(tr, args, kwargs, exc):
    from rdcert.solver import BlowUpError
    if not isinstance(exc, BlowUpError):
        return
    sys_spec = args[0]
    dt = _arg(args, kwargs, 2, "dt")
    if dt is None:
        dt = min(1e-3, sys_spec.grid.h)
    steps = int(round(exc.time / dt))
    tr.count("solver.blowups")
    tr.count("solver.steps", steps)
    tr.count("solver.node_steps", steps * sys_spec.grid.n * sys_spec.kinetics.n_components)


def _count_calls(key):
    def hook(tr, args, kwargs, result):
        tr.count(key)
    return hook


def _count_check_points(tr, args, kwargs, report):
    tr.count("inequality.check_points", report.grid_points)


def _count_comparison(tr, args, kwargs, sol):
    if sol.blowup_time is not None:
        tr.count("inequality.comparison_blowups")


def _count_violations(tr, args, kwargs, violations):
    tr.count("apriori.pointwise_violations", len(violations))


def _count_bytes(tr, args, kwargs, result):
    tr.count("reporting.bytes", os.path.getsize(args[0]))


def _count_not_applicable(tr, args, kwargs, exc):
    from rdcert.scenarios import ScenarioNotApplicable
    if isinstance(exc, ScenarioNotApplicable):
        tr.count("scenarios.not_applicable")


# (defining module, function, span name, hook on return, hook on exception).
# Span names are "<layer>.<function>"; the layer is the rdcert module whose
# code runs inside the span.
TARGETS = (
    ("rdcert.solver", "simulate", "solver.simulate", _count_steps, _count_blowup),
    ("rdcert.solver", "manufactured_system", "solver.manufactured_system", None, None),
    ("rdcert.solver", "energy_inequality_residuals", "solver.energy_inequality_residuals",
     None, None),
    ("rdcert.grid", "norms_from_values", "grid.norms_from_values",
     _count_calls("grid.norms_calls"), None),
    ("rdcert.profiles", "eval_reaction", "profiles.eval_reaction",
     _count_calls("profiles.reaction_calls"), None),
    ("rdcert.profiles", "eval_profile", "profiles.eval_profile",
     _count_calls("profiles.eval_calls"), None),
    ("rdcert.profiles", "reaction_sup_bound", "profiles.reaction_sup_bound", None, None),
    ("rdcert.inequality", "check_certificate", "inequality.check_certificate",
     _count_check_points, None),
    ("rdcert.inequality", "comparison_solve", "inequality.comparison_solve",
     _count_comparison, None),
    ("rdcert.inequality", "verify_envelope", "inequality.verify_envelope", None, None),
    ("rdcert.scenarios", "exponential_decay_scenario", "scenarios.exponential_decay_scenario",
     None, _count_not_applicable),
    ("rdcert.scenarios", "power_decay_scenario", "scenarios.power_decay_scenario",
     None, _count_not_applicable),
    ("rdcert.scenarios", "bounded_neumann_scenario", "scenarios.bounded_neumann_scenario",
     None, _count_not_applicable),
    ("rdcert.scenarios", "modulated_scenario", "scenarios.modulated_scenario",
     None, _count_not_applicable),
    ("rdcert.stability", "dispersion_scan", "stability.dispersion_scan", None, None),
    ("rdcert.stability", "turing_conditions", "stability.turing_conditions", None, None),
    ("rdcert.stability", "critical_d1", "stability.critical_d1", None, None),
    ("rdcert.apriori", "agmon_aggregate", "apriori.agmon_aggregate", None, None),
    ("rdcert.apriori", "build_paraboloid", "apriori.build_paraboloid", None, None),
    ("rdcert.apriori", "find_constant_upper", "apriori.find_constant_upper", None, None),
    ("rdcert.apriori", "verify_pointwise_bound", "apriori.verify_pointwise_bound",
     _count_violations, None),
    ("rdcert.reporting", "write_report", "reporting.write_report", _count_bytes, None),
    ("rdcert.reporting", "write_csv", "reporting.write_csv", _count_bytes, None),
    ("rdcert.reporting", "write_run_meta", "reporting.write_run_meta", _count_bytes, None),
    ("rdcert.reporting", "svg_line_plot", "reporting.svg_line_plot", _count_bytes, None),
    ("rdcert.config", "parse_config", "config.parse_config", None, None),
    ("rdcert.config", "build_system", "config.build_system", None, None),
)

# Functions also replaced in their defining module: Certificate.mu and its
# siblings import eval_profile from rdcert.profiles at call time.
_PATCH_AT_HOME = {"eval_profile"}

# Per-layer metrics: name -> (unit, how it is computed).  "incl" sums the
# inclusive durations of the listed spans, "self" sums the self time of every
# span of a layer, "count" reads a counter.
LAYER_METRICS = {
    "solver.simulate_s": ("s", "incl", ("solver.simulate",)),
    "solver.self_s": ("s", "self", "solver"),
    "solver.steps": ("count", "count", "solver.steps"),
    "solver.node_steps": ("count", "count", "solver.node_steps"),
    "solver.us_per_step": ("us", "ratio", ("solver.simulate_s", "solver.steps", 1e6)),
    "solver.ns_per_node_step": ("ns", "ratio", ("solver.simulate_s", "solver.node_steps", 1e9)),
    # computed from the array sizes (8 bytes per node and component), not measured
    "solver.state_bytes_per_step": ("bytes", "ratio", ("solver.node_steps", "solver.steps", 8.0)),
    "solver.blowups": ("count", "count", "solver.blowups"),
    "solver.energy_check_s": ("s", "incl", ("solver.energy_inequality_residuals",)),
    "grid.self_s": ("s", "self", "grid"),
    "grid.norms_s": ("s", "incl", ("grid.norms_from_values",)),
    "grid.norms_calls": ("count", "count", "grid.norms_calls"),
    "profiles.self_s": ("s", "self", "profiles"),
    "profiles.reaction_s": ("s", "incl", ("profiles.eval_reaction",)),
    "profiles.reaction_calls": ("count", "count", "profiles.reaction_calls"),
    "profiles.reaction_bound_s": ("s", "incl", ("profiles.reaction_sup_bound",)),
    "profiles.eval_calls": ("count", "count", "profiles.eval_calls"),
    "inequality.self_s": ("s", "self", "inequality"),
    "inequality.check_s": ("s", "incl", ("inequality.check_certificate",)),
    "inequality.check_points": ("count", "count", "inequality.check_points"),
    "inequality.comparison_s": ("s", "incl", ("inequality.comparison_solve",)),
    "inequality.comparison_blowups": ("count", "count", "inequality.comparison_blowups"),
    "inequality.envelope_s": ("s", "incl", ("inequality.verify_envelope",)),
    "inequality.oracle_mismatches": ("count", "count", "inequality.oracle_mismatches"),
    "scenarios.self_s": ("s", "self", "scenarios"),
    "scenarios.not_applicable": ("count", "count", "scenarios.not_applicable"),
    "stability.self_s": ("s", "self", "stability"),
    "stability.scan_s": ("s", "incl", ("stability.dispersion_scan",
                                       "stability.turing_conditions")),
    "stability.critical_s": ("s", "incl", ("stability.critical_d1",)),
    "apriori.self_s": ("s", "self", "apriori"),
    "apriori.constants_s": ("s", "incl", ("apriori.agmon_aggregate",)),
    "apriori.barrier_s": ("s", "incl", ("apriori.build_paraboloid",
                                        "apriori.find_constant_upper",
                                        "apriori.verify_pointwise_bound")),
    "apriori.pointwise_violations": ("count", "count", "apriori.pointwise_violations"),
    "reporting.self_s": ("s", "self", "reporting"),
    "reporting.write_s": ("s", "incl", ("reporting.write_report", "reporting.write_csv",
                                        "reporting.write_run_meta",
                                        "reporting.svg_line_plot")),
    "reporting.bytes": ("bytes", "count", "reporting.bytes"),
    "config.self_s": ("s", "self", "config"),
    "config.build_s": ("s", "incl", ("config.parse_config", "config.build_system")),
    "cli.unaccounted_s": ("s", "root_self", None),
}


class Tracer:
    """In-memory span recorder plus the module patches that feed it."""

    def __init__(self):
        self.spans = []          # (span_id, parent_id, job_id, name, start, end)
        self.self_time = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.counts = defaultdict(float)
        self.jobs = 0
        self.job_wall = 0.0
        self.root_self = 0.0
        self._stack = []         # [span_id, name, start, child_time]
        self._next_id = 0
        self._job = None
        self._patches = []       # (namespace, key, original)

    # -- recording ---------------------------------------------------------

    def count(self, key, amount=1):
        self.counts[key] += amount

    def _enter(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, _clock(), 0.0])

    def _exit(self):
        end = _clock()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else None, self._job, name, start, end))
        self.inclusive[name] += duration
        self.self_time[name] += duration - child
        return duration, duration - child

    def run_job(self, job_id, root_name, fn):
        """Run ``fn()`` as one job under a root span; returns its result."""
        self._job = job_id
        self._enter(root_name)
        try:
            return fn()
        finally:
            duration, own = self._exit()
            self.jobs += 1
            self.job_wall += duration
            self.root_self += own
            self._job = None

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name, on_return, on_error):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit()
                if on_error is not None:
                    on_error(tracer, args, kwargs, exc)
                raise
            tracer._exit()
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Swap the rdcert bindings of each target outside its own module
        (the package namespace included) for a traced wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "rdcert" or key.startswith("rdcert."))]
        for module_name, attr, span, on_return, on_error in TARGETS:
            home = sys.modules.get(module_name)
            if home is None:
                continue  # a module the workload never imports makes no calls
            original = getattr(home, attr)
            wrapper = self._wrap(original, span, on_return, on_error)
            for module in modules:
                if module is home and attr not in _PATCH_AT_HOME:
                    continue  # calls inside the defining module cross no boundary
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patches.append((namespace, key, original))
                        namespace[key] = wrapper
                    elif (isinstance(value, dict) and key.startswith("_")
                          and not key.startswith("__")):
                        # dispatch tables, such as the one run-theorem picks scenarios from
                        for k, v in list(value.items()):
                            if v is original:
                                self._patches.append((value, k, original))
                                value[k] = wrapper

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches = []

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric, as a mean per traced job."""
        n = max(self.jobs, 1)
        layer_self = defaultdict(float)
        for name, value in self.self_time.items():
            layer_self[name.split(".", 1)[0]] += value
        out = {}
        for metric, (unit, kind, arg) in LAYER_METRICS.items():
            if kind == "incl":
                value = sum(self.inclusive.get(s, 0.0) for s in arg) / n
            elif kind == "self":
                value = layer_self.get(arg, 0.0) / n
            elif kind == "count":
                value = self.counts.get(arg, 0.0) / n
            elif kind == "root_self":
                value = self.root_self / n
            else:  # ratio of two metrics computed above
                num, den, scale = arg
                den_value = out[den]["value"]
                value = scale * out[num]["value"] / den_value if den_value else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def accounting(self) -> dict:
        """Per-job check that layer self times plus the root's own time add up
        to the measured job wall time."""
        n = max(self.jobs, 1)
        layers = defaultdict(float)
        for name, value in self.self_time.items():
            layers[name.split(".", 1)[0]] += value / n
        job_s = self.job_wall / n
        in_layers = sum(v for k, v in layers.items() if k != ROOT_LAYER)
        return {"traced_jobs": self.jobs, "job_s_mean": job_s,
                "layer_self_s": dict(sorted(layers.items())),
                "accounted_share": (sum(layers.values()) / job_s) if job_s else 0.0,
                "in_layers_share": (in_layers / job_s) if job_s else 0.0}

    def write(self, path):
        """Spans as gzipped JSON lines: id, parent, job, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
