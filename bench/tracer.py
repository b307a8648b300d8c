"""In-memory span tracer that wraps hamflow's public layer functions from outside.

A span is (name, start, end, parent span, operation id).  Spans live in
compact arrays while the traced pass runs and are written to an ``.npz``
file afterwards.  Self time is a span's duration minus the time covered by
its direct children, so the self times of all spans sum to the root span's
duration.  Counters that need the call's arguments or result (rows, points,
integrator steps, terminations) are updated by per-function hooks at the
same boundaries.

Nothing under ``src/`` is modified: ``install`` rebinds every reference to a
wrapped function inside the ``hamflow`` modules (module globals and
module-level dicts such as ``verifier._CHECKS``) and replaces wrapped
methods on their classes.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from hamflow.errors import ImmediateExit
from hamflow.jets import Jet


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = [-1]
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def parent_name(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.name[top]]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, hook=None, scope: bool = False):
        """Return ``fn`` wrapped in a span; ``hook(tracer, args, kwargs, out, exc)``."""
        nid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if scope:
                tracer.active[name] += 1
            idx = tracer._open(nid)
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer._close(idx)
                if scope:
                    tracer.active[name] -= 1
                if hook is not None:
                    hook(tracer, args, kwargs, out, exc)

        return wrapper

    # ------------------------------------------------------------------
    # derived numbers

    def self_times(self, cut) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name ids, durations, self times) of every recorded span.

        ``cut`` is (starts, durations) of time-ordered intervals that belong
        to no span (the speed probes, which run from a signal handler); each
        lies wholly before or after any span boundary and is taken out of
        every span around it.
        """
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        cut_start = np.asarray(cut[0], dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(cut[1])])
        inside = cum[np.searchsorted(cut_start, end)] - cum[np.searchsorted(cut_start, start)]
        dur = end - start - inside
        child = np.bincount(parent + 1, weights=dur, minlength=len(dur) + 1)[1:]
        return name, dur, dur - child

    def by_name(self, cut) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, summed self time, summed duration), times in seconds."""
        name, dur, self_s = self.self_times(cut)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        selfs = np.bincount(name, weights=self_s, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        return {n: (int(calls[i]), float(selfs[i]), float(total[i])) for i, n in enumerate(self.names)}

    def save(self, path, op_labels: list[str], cut) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            op_labels=np.array(op_labels),
            cut_start=np.asarray(cut[0], dtype=float),
            cut_duration=np.asarray(cut[1], dtype=float),
        )


# ----------------------------------------------------------------------
# counting hooks


def _rows(points) -> int:
    return int(np.atleast_2d(np.asarray(points)).shape[0])


def _seed_hook(t, args, kwargs, out, exc):
    rows = _rows(args[0])
    order = kwargs.get("order", args[1] if len(args) > 1 else 2)
    t.counts["jets.seed.rows"] += rows
    if order == 2:
        t.counts["jets.seed.rows_o2"] += rows


def _arith_hook(t, args, kwargs, out, exc):
    t.counts["jets.arith.calls"] += 1
    if not isinstance(args[1], Jet):
        t.counts["jets.arith.const"] += 1


def _coefficients_hook(t, args, kwargs, out, exc):
    if t.active["verifier.run_all"]:
        t.counts["forms.coefficients.in_checks"] += 1


def _field_values_hook(t, args, kwargs, out, exc):
    if out is not None:
        t.counts["forms.field_values.rows"] += out.shape[0]
    if t.active["flow.integrate"]:
        t.counts["flow.velocity_evals"] += 1


def _solve_hook(t, args, kwargs, out, exc):
    t.counts["linalg.solve_spd_jet.rows"] += args[1][0].n


def _sample_domain_hook(t, args, kwargs, out, exc):
    if out is not None:
        t.counts["chart.sample_domain.points"] += out.shape[0]


def _sample_boundary_hook(t, args, kwargs, out, exc):
    if out is not None:
        t.counts["chart.sample_boundary.points"] += out.shape[0]


def _contains_hook(t, args, kwargs, out, exc):
    rows = _rows(args[1])
    t.counts["chart.contains.rows"] += rows
    if t.parent_name() == "chart.sample_domain":
        t.counts["chart.sample_domain.tested"] += rows


def _integrate_hook(t, args, kwargs, out, exc):
    if exc is not None:
        key = "flow.refused" if isinstance(exc, ImmediateExit) else "flow.term.other"
        t.counts[key] += 1
        return
    t.counts["flow.integrate.steps"] += len(out.times) - 1
    ci = out.chart_indices
    t.counts["flow.chart_switches"] += sum(a != b for a, b in zip(ci, ci[1:]))
    term = out.termination if out.termination in ("boundary", "critical_set") else "other"
    t.counts[f"flow.term.{term}"] += 1


def _legendrian_hook(t, args, kwargs, out, exc):
    if out is not None:
        t.counts["flow.legendrian.loop_points"] += sum(len(c.loop) for c in out.components)


CHECKS = ("symplectic", "liouville", "hamiltonian", "invariance", "commutation", "contact_boundary")


def _targets():
    """(owner, attribute, span name, hook, scope) for every wrapped function."""
    from hamflow import chart, critical, flow, forms, jets, linalg, model, registry, verifier

    out = [
        (jets, "seed", "jets.seed", _seed_hook, False),
        (forms.KForm, "coefficients", "forms.coefficients", _coefficients_hook, False),
        (forms, "field_values", "forms.field_values", _field_values_hook, False),
        (forms, "metric_matrix", "forms.metric_matrix", None, False),
        (forms, "form_matrix", "forms.form_matrix", None, False),
        (linalg, "solve_spd_jet", "linalg.solve_spd_jet", _solve_hook, False),
        (linalg, "compatible_structure", "linalg.compatible_structure", None, False),
        (linalg, "nondegenerate", "linalg.nondegenerate", None, False),
        (chart, "sample_domain", "chart.sample_domain", _sample_domain_hook, False),
        (chart, "sample_boundary", "chart.sample_boundary", _sample_boundary_hook, False),
        (chart.Chart, "contains", "chart.contains", _contains_hook, False),
        (chart.Chart, "distance", "chart.distance", None, False),
        (chart.SmoothMap, "apply", "chart.map_apply", None, False),
        (model.ChartData, "gradient_field", "model.gradient_field", None, False),
        (model.ChartData, "action_map", "model.action_map", None, False),
        (model.HamiltonianModel, "transitions_from", "model.transitions_from", None, False),
        (registry, "build", "registry.build", None, False),
        (verifier, "run_all", "verifier.run_all", None, True),
        (flow, "integrate", "flow.integrate", _integrate_hook, True),
        (flow, "detect_legendrian_set", "flow.detect_legendrian_set", _legendrian_hook, False),
        (flow, "stabilizer_of", "flow.stabilizer_of", None, False),
        (flow, "boundary_sign_portrait", "flow.boundary_sign_portrait", None, False),
        (critical, "extrema_analysis", "critical.extrema_analysis", None, False),
        (critical, "find_fixed_points", "critical.find_fixed_points", None, False),
        (critical, "boundary_connectivity", "critical.boundary_connectivity", None, False),
        (critical, "hessian_data", "critical.hessian_data", None, False),
    ]
    out += [(verifier, f"check_{c}", f"verifier.{c}", None, False) for c in CHECKS]
    for attr, op in (
        ("__mul__", "mul"),
        ("__rmul__", "mul"),
        ("__add__", "add"),
        ("__radd__", "add"),
        ("__sub__", "sub"),
        ("__rsub__", "sub"),
        ("__truediv__", "div"),
        ("__rtruediv__", "div"),
    ):
        out.append((jets.Jet, attr, f"jets.{op}", _arith_hook, False))
    return out


def _rebind(orig, wrapper) -> None:
    """Point every hamflow module global (and module-level dict value) at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hamflow" or mod_name.startswith("hamflow.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is orig:
                        val[k] = wrapper


def install(tracer: Tracer) -> None:
    """Wrap every layer function listed in ``_targets`` for the rest of the process."""
    for owner, attr, name, hook, scope in _targets():
        orig = vars(owner)[attr]
        wrapper = tracer.wrap(orig, name, hook, scope)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _rebind(orig, wrapper)


# ----------------------------------------------------------------------
# per-layer metrics


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, cut) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); ``cut`` as in ``self_times``."""
    spans = tracer.by_name(cut)
    c = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def total_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    checks = sum(calls(f"verifier.{ck}") for ck in CHECKS)
    arith_calls = c["jets.arith.calls"]
    m: dict[str, tuple[float, str]] = {
        "jets.seed.calls": (calls("jets.seed"), "count"),
        "jets.seed.rows": (c["jets.seed.rows"], "count"),
        "jets.seed.rows_o2_share": (_ratio(c["jets.seed.rows_o2"], c["jets.seed.rows"]), "ratio"),
        "jets.mul.calls": (calls("jets.mul"), "count"),
        "jets.mul.self_s": (self_s("jets.mul"), "s"),
        "jets.arith.const_share": (_ratio(c["jets.arith.const"], arith_calls), "ratio"),
        "forms.coefficients.calls": (calls("forms.coefficients"), "count"),
        "forms.coefficients.calls_per_check": (
            _ratio(c["forms.coefficients.in_checks"], checks),
            "count",
        ),
        "forms.coefficients.self_s": (self_s("forms.coefficients"), "s"),
        "forms.field_values.calls": (calls("forms.field_values"), "count"),
        "forms.field_values.rows": (c["forms.field_values.rows"], "count"),
        "forms.field_values.self_s": (self_s("forms.field_values"), "s"),
        "forms.metric_matrix.calls": (calls("forms.metric_matrix"), "count"),
        "forms.form_matrix.calls": (calls("forms.form_matrix"), "count"),
        "linalg.solve_spd_jet.calls": (calls("linalg.solve_spd_jet"), "count"),
        "linalg.solve_spd_jet.rows": (c["linalg.solve_spd_jet.rows"], "count"),
        "linalg.solve_spd_jet.self_s": (self_s("linalg.solve_spd_jet"), "s"),
        "linalg.compatible_structure.self_s": (self_s("linalg.compatible_structure"), "s"),
        "linalg.nondegenerate.self_s": (self_s("linalg.nondegenerate"), "s"),
        "chart.sample_domain.accept_ratio": (
            _ratio(c["chart.sample_domain.points"], c["chart.sample_domain.tested"]),
            "ratio",
        ),
        "chart.sample_domain.points": (c["chart.sample_domain.points"], "count"),
        "chart.sample_boundary.points": (c["chart.sample_boundary.points"], "count"),
        "chart.contains.rows": (c["chart.contains.rows"], "count"),
        "model.gradient_field.calls": (calls("model.gradient_field"), "count"),
        "model.action_map.calls": (calls("model.action_map"), "count"),
        "model.transitions_from.calls": (calls("model.transitions_from"), "count"),
        "registry.build.self_s": (self_s("registry.build"), "s"),
        "verifier.invariance.share": (
            _ratio(total_s("verifier.invariance"), total_s("verifier.run_all")),
            "ratio",
        ),
        "flow.integrate.steps": (c["flow.integrate.steps"], "count"),
        "flow.velocity_evals": (c["flow.velocity_evals"], "count"),
        "flow.evals_per_step": (_ratio(c["flow.velocity_evals"], c["flow.integrate.steps"]), "ratio"),
        "flow.chart_switches": (c["flow.chart_switches"], "count"),
        "flow.term.boundary": (c["flow.term.boundary"], "count"),
        "flow.term.critical_set": (c["flow.term.critical_set"], "count"),
        "flow.term.other": (c["flow.term.other"], "count"),
        "flow.refused": (c["flow.refused"], "count"),
        "flow.legendrian.loop_points": (c["flow.legendrian.loop_points"], "count"),
    }
    for name in (
        "chart.sample_domain",
        "chart.sample_boundary",
        "chart.contains",
        "chart.distance",
        "chart.map_apply",
        "flow.integrate",
    ):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["flow.stabilizer_of.calls"] = (calls("flow.stabilizer_of"), "count")
    m["critical.hessian_data.calls"] = (calls("critical.hessian_data"), "count")
    for name in (
        "flow.detect_legendrian_set",
        "flow.boundary_sign_portrait",
        "critical.extrema_analysis",
        "critical.find_fixed_points",
        "critical.boundary_connectivity",
    ):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for ck in CHECKS:
        m[f"verifier.{ck}.self_s"] = (self_s(f"verifier.{ck}"), "s")
    m["trace.spans"] = (len(tracer.start), "count")
    return m
