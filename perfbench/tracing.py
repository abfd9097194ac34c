"""In-memory spans around calls into the sghmc package (traced runs only).

The tracer never edits the package. It replaces, at every site inside
``sghmc.*`` that holds a reference to a traced function (for example
``sghmc.harness.ensemble_run`` and ``sghmc.theory.contraction_constants``),
that reference with a wrapper that records a span:

    name, start, end, parent span, operation id, pass, work units

Objective evaluations are too frequent for one span per call. Specs built
through ``make_objective`` (as the harness's ``materialize`` does) are
rebuilt with ``dataclasses.replace`` around timed copies of ``f``,
``grad_f``, ``risk_rows`` and ``grad_rows``; each call adds its count, rows
and seconds to the span that is open when it happens.

A span's self time is its duration minus its child spans and minus the
objective time aggregated under it. Spans stay in memory and are written out
by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

RUN_KINDS = (
    "audit",
    "constants",
    "sample",
    "couple",
    "rate-study",
    "gibbs-check",
    "risk-bound",
    "validate",
)


def _ensemble_work(a):
    return a["steps"] * a["replicas"]


def _coupled_ensemble_work(a):
    return 2 * a["steps"] * a["replicas"]


def _fine_steps(a):
    # fine steps of the (R, d) reference block: coarse steps times the ratio
    n_coarse = int(round(a["t_end"] / a["cfg"].lam))
    return n_coarse * int(round(a["cfg"].lam / a["lambda_ref"]))


def _draws(a):
    return len(a["probes"]) * a["trials"]


# (module, attribute, span name, work units derived from the bound arguments)
SPAN_TARGETS = (
    ("sghmc.samplers", "ensemble_run", "samplers.ensemble_run", _ensemble_work),
    ("sghmc.samplers", "coupled_ensemble_run", "samplers.coupled_ensemble_run",
     _coupled_ensemble_work),
    ("sghmc.samplers", "run_chain", "samplers.run_chain", lambda a: a["steps"]),
    ("sghmc.samplers", "coupled_run", "samplers.coupled_run", lambda a: a["steps"]),
    ("sghmc.samplers", "brownian_coupled_distance", "samplers.brownian_coupled_distance",
     _fine_steps),
    ("sghmc.objectives", "audit_assumptions", "objectives.audit_assumptions", None),
    ("sghmc.gradient_oracle", "estimate_delta", "gradient_oracle.estimate_delta", _draws),
    ("sghmc.theory", "derive_drift_constants", "theory.derive_drift_constants", None),
    ("sghmc.theory", "contraction_constants", "theory.contraction_constants", None),
    ("sghmc.theory", "h_profile", "theory.h_profile", None),
    ("sghmc.theory", "moment_bound_constants", "theory.moment_bound_constants", None),
    ("sghmc.theory", "proof_constants", "theory.proof_constants", None),
    ("sghmc.theory", "risk_bound", "theory.risk_bound", None),
    ("sghmc.metrics", "rho_distance_cloud", "metrics.rho_distance_cloud", None),
    ("sghmc.metrics", "wasserstein_exact_small", "metrics.wasserstein_exact_small", None),
    ("sghmc.metrics", "sliced_wasserstein", "metrics.sliced_wasserstein", None),
    ("sghmc.harness", "validate_config", "harness.validate_config", None),
    ("sghmc.harness", "materialize", "harness.materialize", None),
    ("sghmc.harness", "run_experiment", "harness.run_experiment", None),
    ("sghmc.cli", "main", "cli.main", None),
)

# per-layer metric names and units, in the order they are reported
PER_LAYER_UNITS = {
    "samplers.ensemble_run.us_per_replica_step": "us",
    "samplers.ensemble_run.self_s": "s",
    "samplers.coupled_ensemble_run.us_per_replica_step": "us",
    "samplers.run_chain.us_per_step": "us",
    "samplers.coupled_run.us_per_step": "us",
    "samplers.brownian_coupled_distance.us_per_fine_step": "us",
    "objectives.grad_calls": "count",
    "objectives.grad_rows_evaluated": "count",
    "objectives.grad_s": "s",
    "objectives.risk_s": "s",
    "objectives.audit_assumptions.s": "s",
    "gradient_oracle.estimate_delta.s": "s",
    "gradient_oracle.draws": "count",
    "theory.derive_drift_constants.s": "s",
    "theory.contraction_constants.s": "s",
    "theory.h_profile.s": "s",
    "theory.moment_bound_constants.s": "s",
    "theory.proof_constants.s": "s",
    "theory.risk_bound.s": "s",
    "metrics.rho_distance_cloud.s": "s",
    "metrics.wasserstein_exact_small.s": "s",
    "metrics.sliced_wasserstein.s": "s",
    "harness.validate_config.s": "s",
    "harness.materialize.s": "s",
    **{f"harness.run_experiment.{kind}.s": "s" for kind in RUN_KINDS},
    "harness.output_bytes": "bytes",
    "samplers.Trajectory.to_csv.s": "s",
    "cli.main.overhead_s": "s",
    "rng.derive_stream.calls": "count",
}

ROOT_SPAN = "bench.pass"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "pass_id", "work", "objective")

    def __init__(self, name, start, parent, op, pass_id, work):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.pass_id = pass_id
        self.work = work
        # kind ("grad" | "risk") -> [calls, rows, seconds]
        self.objective = {}

    def to_dict(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "pass": self.pass_id,
            "work": self.work,
            "objective": self.objective,
        }


class Tracer:
    """Span recorder. Records only while a pass is open (``begin_pass``)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self.pass_id = None
        self.derive_stream_calls = defaultdict(int)
        self.output_bytes = {}

    # -- recording ---------------------------------------------------------

    @property
    def active(self):
        return bool(self._stack)

    def open(self, name, work=0):
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None,
                    self.op, self.pass_id, work)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def begin_pass(self, pass_id):
        self.pass_id = pass_id
        self.op = None
        return self.open(ROOT_SPAN)

    def add_objective(self, kind, rows, seconds):
        if not self._stack:
            return
        agg = self.spans[self._stack[-1]].objective.setdefault(kind, [0, 0, 0.0])
        agg[0] += 1
        agg[1] += rows
        agg[2] += seconds

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace every in-package reference to a traced callable."""
        import sghmc.objectives
        import sghmc.rng
        import sghmc.samplers

        for module, attr, name, work in SPAN_TARGETS:
            original = getattr(sys.modules[module], attr)
            _replace_references(original, self._span_wrapper(original, name, work))
        _replace_references(sghmc.objectives.make_objective,
                            self._make_objective_wrapper(sghmc.objectives.make_objective))
        _replace_references(sghmc.rng.derive_stream,
                            self._counting_wrapper(sghmc.rng.derive_stream))
        to_csv = sghmc.samplers.Trajectory.to_csv
        sghmc.samplers.Trajectory.to_csv = self._span_wrapper(
            to_csv, "samplers.Trajectory.to_csv", None)

    def _span_wrapper(self, fn, name, work):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name
            units = 0
            if work is not None or name == "harness.run_experiment":
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if name == "harness.run_experiment":
                    span_name = f"{name}.{a['cfg'].kind}"
                else:
                    units = work(a)
            span = tracer.open(span_name, units)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def _counting_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.derive_stream_calls[tracer.pass_id] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _make_objective_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.timed_spec(fn(*args, **kwargs))

        return wrapper

    def timed_spec(self, spec):
        """A copy of ``spec`` whose evaluators report to the open span."""

        def timed(fn, kind, stacked):
            if fn is None:
                return None

            def wrapper(X, Z):
                t0 = time.perf_counter()
                out = fn(X, Z)
                rows = len(Z) * (len(X) if stacked else 1)
                self.add_objective(kind, rows, time.perf_counter() - t0)
                return out

            return wrapper

        return dataclasses.replace(
            spec,
            f=timed(spec.f, "risk", False),
            grad_f=timed(spec.grad_f, "grad", False),
            risk_rows=timed(spec.risk_rows, "risk", True),
            grad_rows=timed(spec.grad_rows, "grad", True),
        )

    # -- reduction ---------------------------------------------------------

    def pass_metrics(self, pass_id):
        """Per-layer metrics of one pass, plus the pass's traced wall and
        the share of it that the layers' self times account for."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.pass_id == pass_id]
        child_time = defaultdict(float)
        run_child = defaultdict(float)
        for _, s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
                if s.name.startswith("harness.run_experiment."):
                    run_child[s.parent] += s.end - s.start
        dur = defaultdict(float)
        self_s = defaultdict(float)
        work = defaultdict(float)
        grad = [0, 0, 0.0]
        risk_s = 0.0
        root_wall = 0.0
        root_self = 0.0
        cli_overhead = 0.0
        for i, s in spans:
            d = s.end - s.start
            obj_t = sum(v[2] for v in s.objective.values())
            own = d - child_time[i] - obj_t
            if s.name == ROOT_SPAN:
                root_wall += d
                root_self += own
            dur[s.name] += d
            self_s[s.name] += own
            work[s.name] += s.work
            if s.name == "cli.main":
                cli_overhead += d - run_child[i]
            g = s.objective.get("grad")
            if g:
                grad = [grad[0] + g[0], grad[1] + g[1], grad[2] + g[2]]
            r = s.objective.get("risk")
            if r:
                risk_s += r[2]

        def per_unit(name):
            return 1e6 * dur[name] / work[name] if work[name] else 0.0

        m = {
            "samplers.ensemble_run.us_per_replica_step": per_unit("samplers.ensemble_run"),
            "samplers.ensemble_run.self_s": self_s["samplers.ensemble_run"],
            "samplers.coupled_ensemble_run.us_per_replica_step":
                per_unit("samplers.coupled_ensemble_run"),
            "samplers.run_chain.us_per_step": per_unit("samplers.run_chain"),
            "samplers.coupled_run.us_per_step": per_unit("samplers.coupled_run"),
            "samplers.brownian_coupled_distance.us_per_fine_step":
                per_unit("samplers.brownian_coupled_distance"),
            "objectives.grad_calls": grad[0],
            "objectives.grad_rows_evaluated": grad[1],
            "objectives.grad_s": grad[2],
            "objectives.risk_s": risk_s,
            "gradient_oracle.draws": work["gradient_oracle.estimate_delta"],
            "harness.output_bytes": self.output_bytes.get(pass_id, 0),
            "cli.main.overhead_s": cli_overhead,
            "rng.derive_stream.calls": self.derive_stream_calls[pass_id],
        }
        for name in PER_LAYER_UNITS:
            if name not in m:
                m[name] = dur[name[: -len(".s")]]
        layer_self = sum(self_s.values()) - root_self + grad[2] + risk_s
        return m, {"wall_s": root_wall, "layer_self_s": layer_self}

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s.to_dict() for s in self.spans]}, fh)


def _replace_references(original, replacement):
    """Point every ``sghmc.*`` module attribute that is ``original`` at
    ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sghmc" or mod_name.startswith("sghmc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
