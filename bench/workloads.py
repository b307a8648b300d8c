"""The benchmark's workloads: the models each builds, the calls it times, and
the pinned outputs each call is checked against.

Every workload is closed-loop with one caller: an operation is one public
hamflow call on one model and starts only after the previous one returned.
The seed is passed to the program as its ``seed`` argument, so all samples
and flow starts come from it.  The pinned values below were taken at the
commit that introduced the benchmark and do not depend on the seed;
per-seed reference values live in ``reference.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Callable

from hamflow import critical, flow, registry, verifier

# ----------------------------------------------------------------------
# verify_zoo: `hamflow verify` on every catalog example and control

ZOO = (
    "disc_d4(1,1)",
    "disc_d4(1,-1)",
    "disc_d4(2,3)",
    "disc_d4(1,0)",
    "s1_d3(1,0)",
    "s1_d3(0,1)",
    "s1_d3(2,1)",
    "cotangent_t2(1,0)",
    "cotangent_s2()",
    "weinstein_2handle()",
    "weinstein_1handle(1)",
    "free_action_planar(1)",
    "free_action_planar(2)",
    "free_action_planar(3)",
    "disc_bundle_over_surface()",
    "prequantization_s2()",
    "blowup_d4(1,-1,0.2)",
    "attach_2handle(s1_d3(1,0))",
)
CONTROL_TARGETS = {
    "control_nonclosed_omega": "symplectic",
    "control_scaled_liouville": "liouville",
    "control_unbalanced_handle": "invariance",
}

# ----------------------------------------------------------------------
# flow_extrema: gradient ascent and descent from seeded starts (c07)

# Flow starts per chart.  Cheap models get more starts, so the seed's effect
# on run time averages out over many trajectories.  blowup_d4(1,-1,0.2) is
# left out: a single trajectory there costs 0.2-3 s depending on the start,
# so at the one start per chart that fits a run its time swings by +-20%
# from seed to seed.  Without it, chart switches are rare here: only some
# trajectories from the attached handle cross into the base chart.
FLOW_STARTS = {
    "disc_d4(1,1)": 3,
    "s1_d3(2,1)": 6,
    "attach_2handle(s1_d3(1,0))": 4,
    "prequantization_s2()": 1,
}
_DISCRETE = (
    "interior_max_clusters",
    "interior_min_clusters",
    "max_on_boundary",
    "min_on_boundary",
    "portrait_both_signs",
    "legendrian_consistent",
)
FLOW_PINNED = {
    "disc_d4(1,1)": (0, 1, True, False, False, True),
    "s1_d3(2,1)": (0, 0, True, True, True, True),
    "attach_2handle(s1_d3(1,0))": (0, 0, True, True, True, True),
    "prequantization_s2()": (0, 1, True, False, False, True),
}
# range of the moment map over each model; max_value and min_value must lie
# inside it on every seed, and within FLOW_VALUE_TOL of reference.json on
# the seeds pinned there
FLOW_RANGE = {
    "disc_d4(1,1)": (0.0, 0.5),
    "s1_d3(2,1)": (-2.0, 2.0),
    "attach_2handle(s1_d3(1,0))": (-1.0, 1.0),
    "prequantization_s2()": (0.0, 0.5),
}
FLOW_VALUE_TOL = 1e-6

# ----------------------------------------------------------------------
# zero_locus: boundary zero-level orbit sets (c03/c04), fixed points and
# boundary connectivity

# (closed, torus_certified) of every component, sorted
LEGENDRIAN_PINNED = {
    "disc_d4(1,1)": [],
    "disc_d4(1,-1)": [(True, True)],
    "cotangent_t2(1,0)": [(True, True)] * 2,
    "s1_d3(1,0)": [(True, True)],
    "free_action_planar(1)": [(True, True)],
    "free_action_planar(2)": [(True, True)] * 2,
    "free_action_planar(3)": [(True, True)] * 3,
    "s1_d3(2,1)": [(False, True)],
    "blowup_d4(1,-1,0.2)": [(True, True)],
}
# Morse index of every fixed-point cluster, sorted
FIXED_INDICES_PINNED = {
    "disc_d4(1,1)": [0],
    "disc_d4(1,-1)": [2],
    "cotangent_t2(1,0)": [],
    "s1_d3(1,0)": [],
    "free_action_planar(1)": [],
    "free_action_planar(2)": [],
    "free_action_planar(3)": [],
    "s1_d3(2,1)": [],
    "blowup_d4(1,-1,0.2)": [2, 2],
}


@dataclass
class Op:
    """One timed program call plus the check of its output.

    ``judge(out, reference)`` returns (summary, problems): a JSON-able
    summary of the output and the list of ways it breaks its pinned check.
    ``reference`` is this op's entry in reference.json for the run's seed,
    or None when the seed is not pinned there.
    """

    label: str
    run: Callable[[], Any]
    judge: Callable[[Any, dict | None], tuple[dict, list[str]]]


def report_sha256(report) -> str:
    return hashlib.sha256(report.to_json()).hexdigest()


def _judge_verify(target):
    def judge(report, reference):
        summary = {"sha256": report_sha256(report), "failures": report.failures()}
        if target is None:
            problems = [] if report.overall else [f"checks failed: {report.failures()}"]
        else:
            ok = report.failures() == [target]
            problems = [] if ok else [f"control fails {report.failures()}, expected [{target!r}]"]
        return summary, problems

    return judge


def _judge_extrema(spec):
    def judge(rep, reference):
        summary = dataclasses.asdict(rep)
        problems = []
        got = tuple(summary[k] for k in _DISCRETE)
        if got != FLOW_PINNED[spec]:
            problems.append(f"discrete fields {got}, pinned {FLOW_PINNED[spec]}")
        lo, hi = FLOW_RANGE[spec]
        for key in ("max_value", "min_value"):
            v = summary[key]
            if not lo - FLOW_VALUE_TOL <= v <= hi + FLOW_VALUE_TOL:
                problems.append(f"{key} {v!r} outside the moment range [{lo}, {hi}]")
            elif reference is not None and abs(v - reference[key]) > FLOW_VALUE_TOL:
                problems.append(f"{key} {v!r} differs from pinned {reference[key]!r}")
        return summary, problems

    return judge


def _judge_legendrian(spec):
    def judge(found, reference):
        flags = sorted((c.closed, c.torus_certified) for c in found.components)
        ok = flags == sorted(LEGENDRIAN_PINNED[spec])
        problems = [] if ok else [f"components {flags}, pinned {LEGENDRIAN_PINNED[spec]}"]
        return {"components": flags}, problems

    return judge


def _judge_fixed(spec):
    def judge(clusters, reference):
        indices = sorted(c.index for c in clusters)
        ok = indices == FIXED_INDICES_PINNED[spec]
        problems = [] if ok else [f"fixed-point indices {indices}, pinned {FIXED_INDICES_PINNED[spec]}"]
        return {"indices": indices}, problems

    return judge


def _judge_connectivity(count, reference):
    return {"components": count}, ([] if count == 1 else [f"{count} boundary components, expected 1"])


# Each workload has a ``name``, ``build()`` returning its (label, model)
# pairs, and ``ops(models, seed)`` returning the ops of one pass.


class VerifyZoo:
    name = "verify_zoo"

    def build(self):
        models = [(spec, registry.build(spec)) for spec in ZOO]
        models += [(name, verifier.CONTROLS[name][1]()) for name in CONTROL_TARGETS]
        return models

    def ops(self, models, seed):
        config = verifier.RunConfig(seed=seed)
        return [
            Op(
                label,
                lambda m=model: verifier.run_all(m, config),
                _judge_verify(CONTROL_TARGETS.get(label)),
            )
            for label, model in models
        ]


class FlowExtrema:
    name = "flow_extrema"

    def build(self):
        return [(spec, registry.build(spec)) for spec in FLOW_STARTS]

    def ops(self, models, seed):
        return [
            Op(
                spec,
                lambda m=model, k=FLOW_STARTS[spec]: critical.extrema_analysis(m, seed=seed, starts=k),
                _judge_extrema(spec),
            )
            for spec, model in models
        ]


class ZeroLocus:
    name = "zero_locus"

    def build(self):
        return [(spec, registry.build(spec)) for spec in LEGENDRIAN_PINNED]

    def ops(self, models, seed):
        out = []
        for spec, model in models:
            out += [
                Op(
                    f"legendrian {spec}",
                    lambda m=model: flow.detect_legendrian_set(m, seed=seed),
                    _judge_legendrian(spec),
                ),
                Op(
                    f"fixed_points {spec}",
                    lambda m=model: critical.find_fixed_points(m, seed=seed),
                    _judge_fixed(spec),
                ),
                Op(
                    f"connectivity {spec}",
                    lambda m=model: critical.boundary_connectivity(m, seed=seed),
                    _judge_connectivity,
                ),
            ]
        return out


WORKLOADS = {w.name: w for w in (VerifyZoo(), FlowExtrema(), ZeroLocus())}
