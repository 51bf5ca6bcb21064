"""Spans and counts recorded around the calls into sourceseek's layers.

Nothing here edits a source file. ``installed`` swaps, for the duration of
a traced pass, the module-level names that the studies and the benchmark's
own tasks look up when they call into a layer, and restores them after:

* ``experiments.integrate``, also wrapping the rhs handed to it;
* ``experiments.estimate_rate``, ``averaging.gamma_pair`` / ``gamma_triple``,
  ``averaging.lie_bracket`` and the ``central_jacobian`` that ``averaging``
  and ``stability`` call;
* the public entry points the tasks call, and the report renderers.

A span is (name, start, end, parent, task id). Spans of one task share the
task id; the parent is the span open when the call began, so the spans of a
single-threaded run nest. A layer's self time is its spans' duration minus
the part covered by their child spans.
"""

from __future__ import annotations

import collections
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from sourceseek import averaging, experiments, seekers, stability


class Tracer:
    """In-memory span and count store, written out once the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: collections.Counter = collections.Counter()
        self.task_id = -1
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        nid = self.name_id(name)
        names, parents, tasks = self.name, self.parent, self.task
        starts, ends, stack = self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            tasks.append(self.task_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def run_task(self, task_id: int, fn, *args):
        """Call ``fn(*args)`` as task ``task_id`` under a root ``task`` span."""
        self.task_id = task_id
        try:
            return self.wrap("task", fn)(*args)
        finally:
            self.task_id = -1

    def count(self, key: str, fn, amount=None):
        """``fn`` that adds one (or ``amount(result)``) to ``counts[key]``."""
        counts = self.counts

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[key] += 1 if amount is None else amount(out)
            return out

        return counted

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap and
    the part of its interval they cover is the sum of their durations.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


#: (metric name, unit) of every per-layer metric, in print order.
LAYER_METRICS = (
    ("seekers.rhs_calls", "count"),
    ("seekers.rhs_s", "s"),
    ("seekers.rhs_us_per_call", "us"),
    ("ode.integrate_calls", "count"),
    ("ode.steps", "count"),
    ("ode.recorded_samples", "count"),
    ("ode.self_s", "s"),
    ("ode.self_us_per_step", "us"),
    ("experiments.self_s", "s"),
    ("experiments.estimate_rate_calls", "count"),
    ("experiments.estimate_rate_s", "s"),
    ("experiments.report_s", "s"),
    ("averaging.check_assumptions_s", "s"),
    ("averaging.build_s", "s"),
    ("averaging.coefficients", "count"),
    ("averaging.coefficient_s", "s"),
    ("averaging.eval_calls", "count"),
    ("averaging.eval_us_per_state", "us"),
    ("averaging.brackets", "count"),
    ("averaging.field_evals", "count"),
    ("averaging.report_s", "s"),
    ("numdiff.jacobians", "count"),
    ("stability.certificate_s", "s"),
    ("stability.margin_points", "count"),
    ("stability.margin_s", "s"),
    ("stability.linearize_s", "s"),
    ("stability.report_s", "s"),
)


def span_table(tracer: Tracer) -> list[dict]:
    """Calls, total and self time of every span name that was entered."""
    data = tracer.arrays()
    dur = data["end"] - data["start"]
    own = self_times(data["start"], data["end"], data["parent"])
    rows = []
    for i, name in enumerate(tracer.names):
        mask = data["name"] == i
        if mask.any():
            rows.append({"name": name, "calls": int(np.count_nonzero(mask)),
                         "total_s": float(dur[mask].sum()),
                         "self_s": float(own[mask].sum())})
    return rows


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times from the spans and counts of a traced pass."""
    data = tracer.arrays()
    dur = data["end"] - data["start"]
    own = self_times(data["start"], data["end"], data["parent"])
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(*names):
        wanted = [ids[n] for n in names if n in ids]
        return np.isin(data["name"], wanted)

    def calls(*names) -> int:
        return int(np.count_nonzero(mask(*names)))

    def total(*names, of=dur) -> float:
        return float(of[mask(*names)].sum())

    def per(value: float, n: int, scale: float = 1e6) -> float:
        return value / n * scale if n else 0.0

    rhs = mask("seekers.rhs")
    integrate = ids.get("ode.integrate", -1)
    in_integrate = rhs & (data["parent"] >= 0)
    in_integrate[in_integrate] = data["name"][data["parent"][in_integrate]] == integrate
    rhs_calls = calls("seekers.rhs")
    rhs_s = total("seekers.rhs")
    steps = int(np.count_nonzero(in_integrate)) // 4  # four rhs calls per RK4 step
    ode_self = total("ode.integrate", of=own)
    eval_calls = calls("averaging.eval")
    return {
        "seekers.rhs_calls": rhs_calls,
        "seekers.rhs_s": rhs_s,
        "seekers.rhs_us_per_call": per(rhs_s, rhs_calls),
        "ode.integrate_calls": calls("ode.integrate"),
        "ode.steps": steps,
        "ode.recorded_samples": int(tracer.counts["ode.recorded_samples"]),
        "ode.self_s": ode_self,
        "ode.self_us_per_step": per(ode_self, steps),
        "experiments.self_s": total("experiments.run_simulate",
                                    "experiments.run_hessian_invariance", of=own),
        "experiments.estimate_rate_calls": calls("experiments.estimate_rate"),
        "experiments.estimate_rate_s": total("experiments.estimate_rate"),
        "experiments.report_s": total("experiments.report"),
        "averaging.check_assumptions_s": total("averaging.check_assumptions"),
        "averaging.build_s": total("averaging.build"),
        "averaging.coefficients": calls("averaging.coefficient"),
        "averaging.coefficient_s": total("averaging.coefficient"),
        "averaging.eval_calls": eval_calls,
        "averaging.eval_us_per_state": per(total("averaging.eval"), eval_calls),
        "averaging.brackets": calls("averaging.bracket"),
        "averaging.field_evals": int(tracer.counts["averaging.field_evals"]),
        "averaging.report_s": total("averaging.report"),
        "numdiff.jacobians": calls("numdiff.central_jacobian"),
        "stability.certificate_s": total("stability.certificate"),
        "stability.margin_points": int(tracer.counts["stability.margin_points"]),
        "stability.margin_s": total("stability.margin"),
        "stability.linearize_s": total("stability.linearize"),
        "stability.report_s": total("stability.report"),
    }


@contextmanager
def installed(tracer: Tracer):
    """Route the calls into every layer through ``tracer`` until exit."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(owner, attr, name):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    integrate_span = tracer.wrap("ode.integrate", experiments.integrate)

    def integrate(rhs, *args, **kwargs):
        traj = integrate_span(tracer.wrap("seekers.rhs", rhs), *args, **kwargs)
        tracer.counts["ode.recorded_samples"] += len(traj.times)
        return traj

    def counted_system(make):
        def build(*args, **kwargs):
            system = make(*args, **kwargs)
            field = lambda fn: tracer.count("averaging.field_evals", fn)  # noqa: E731
            return averaging.ControlAffineSystem(
                drift=field(system.drift),
                channels=tuple((field(f), u) for f, u in system.channels),
                dimension=system.dimension,
                smooth_remainder=system.smooth_remainder,
            )
        return build

    def margin(attr):
        counted = tracer.count("stability.margin_points",
                               getattr(stability, attr), amount=np.size)
        patch(stability, attr, tracer.wrap("stability.margin", counted))

    try:
        patch(experiments, "integrate", integrate)
        span(experiments, "estimate_rate", "experiments.estimate_rate")
        span(experiments, "run_simulate", "experiments.run_simulate")
        span(experiments, "run_hessian_invariance",
             "experiments.run_hessian_invariance")
        span(experiments.SimulateResult, "report", "experiments.report")
        span(experiments.HessianSweepReport, "report", "experiments.report")

        span(averaging, "check_assumptions", "averaging.check_assumptions")
        span(averaging, "build_averaged_field", "averaging.build")
        span(averaging, "gamma_pair", "averaging.coefficient")
        span(averaging, "gamma_triple", "averaging.coefficient")
        span(averaging, "lie_bracket", "averaging.bracket")
        span(averaging, "central_jacobian", "numdiff.central_jacobian")
        span(averaging.AveragedField, "__call__", "averaging.eval")
        span(averaging.AveragedField, "report", "averaging.report")
        span(averaging.AssumptionReport, "__str__", "averaging.report")
        for attr in ("gradient_affine_system", "newton_affine_system"):
            patch(seekers, attr, counted_system(getattr(seekers, attr)))

        span(stability, "build_certificate", "stability.certificate")
        margin("vdot_margin")
        margin("iss_bound_check")
        span(stability, "linearize", "stability.linearize")
        span(stability, "stability_report", "stability.report")
        span(stability, "central_jacobian", "numdiff.central_jacobian")
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
