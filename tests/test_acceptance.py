"""End-to-end acceptance suite.

Each test realizes one promised property of the package and prints a
single scoreboard line (PASS/FAIL) that survives pytest's capture, so a
full run ends with ten human-readable verdicts.  Tolerances are stated
inline; nothing here is tuned per machine.
"""

from __future__ import annotations

import functools
import math
import sys
import time

import numpy as np
import pytest

from hamflow import critical, flow, handles, jets, registry, verifier
from hamflow.basic import disc_d4, s1_d3
from hamflow.blowup import blowup_d4
from hamflow.chart import sample_boundary, sample_domain
from hamflow.errors import ImmediateExit
from hamflow.forms import coeff_residual, field_values
from hamflow.model import enumerate_decompositions
from hamflow.verifier import RunConfig, run_all

from oracles import pulled_back

_notes: dict[int, str] = {}

#: one line per criterion; echoed by conftest once capture is released
SCOREBOARD: list[str] = []


def _emit(line: str) -> None:
    SCOREBOARD.append(line)
    print(line, file=sys.__stdout__, flush=True)


def criterion(num: int, label: str):
    """Record one scoreboard line per criterion, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _emit(f"[{num:2d}] {label}: FAIL")
                raise
            extra = f" ({_notes[num]})" if num in _notes else ""
            _emit(f"[{num:2d}] {label}: PASS{extra}")

        return wrapper

    return deco


@functools.lru_cache(maxsize=None)
def _model(spec: str):
    return registry.build(spec)


@functools.lru_cache(maxsize=None)
def _legendrian(spec: str):
    return flow.detect_legendrian_set(_model(spec))


# ---------------------------------------------------------------------------
# 1. every catalogued model passes the full identity suite
# ---------------------------------------------------------------------------


@criterion(1, "identity suite: 6 checks on every catalogued model, 500 samples")
def test_c01_identity_suite():
    t0 = time.perf_counter()
    bad = []
    for spec in registry.ZOO:
        report = run_all(registry.build(spec))  # defaults: seed 0, 500 samples
        if not report.overall:
            bad.append(f"{spec} failed {report.failures()}")
    elapsed = time.perf_counter() - t0
    _notes[1] = f"{len(registry.ZOO)} models in {elapsed:.1f}s"
    assert not bad, bad
    assert elapsed < 60.0, f"identity suite took {elapsed:.1f}s, budget is 60s"


# ---------------------------------------------------------------------------
# 2. corrupted controls fail exactly the check aimed at them
# ---------------------------------------------------------------------------


@criterion(2, "negative controls each fail exactly their targeted check")
def test_c02_negative_controls():
    for name, (target, builder) in verifier.CONTROLS.items():
        report = run_all(builder())
        assert report.failures() == [target], (
            f"{name}: expected only {target!r} to fail, got {report.failures()}"
        )


# ---------------------------------------------------------------------------
# 3. frozen numbers: Hessian indices, zero-locus position, stabilizers
# ---------------------------------------------------------------------------


@criterion(3, "critical indices, zero-locus height, finite stabilizers")
def test_c03_frozen_invariants():
    # saddle of the round 2-handle sits at the origin with index 2
    clusters = critical.find_fixed_points(_model("weinstein_2handle()"))
    assert len(clusters) == 1 and clusters[0].index == 2
    assert np.abs(clusters[0].point).max() < 1e-8

    # disc-model origin index tracks the weight signs: 0, 2, 4 negatives
    for weights, want in (((1, 1), 0), ((1, -1), 2), ((-1, -2), 4)):
        clusters = critical.find_fixed_points(disc_d4(*weights))
        assert len(clusters) == 1, (weights, clusters)
        assert clusters[0].index == want, (weights, clusters[0].index)
        assert not clusters[0].touches_boundary

    # zero locus of the weight-(2,1) solid-torus model: one ring whose
    # height coordinate solves 2h + (1 - h^2)/2 = 0, i.e. h = 2 - sqrt(5)
    ls = _legendrian("s1_d3(2,1)")
    assert ls.count == 1
    h_target = 2.0 - math.sqrt(5.0)
    heights = np.asarray(ls.components[0].loop)[:, 3]
    assert np.abs(heights - h_target).max() < 1e-6

    # finite stabilizers of order 2 where one weight doubles the other
    assert flow.stabilizer_of(_model("disc_d4(2,3)"), 0, (0.5, 0.0, 0.0, 0.0)) == 2
    assert flow.stabilizer_of(_model("s1_d3(2,1)"), 0, (0.7, 0.0, 0.0, 0.3)) == 2
    assert flow.stabilizer_of(blowup_d4(3, 1, 0.1), 0, (0.0, 0.0, 0.4, 0.1)) == 2

    # equal weights fix the replacement sphere pointwise
    fixed = blowup_d4(1, 1, 0.1)
    cd = fixed.charts[0]
    rng = np.random.default_rng(7)
    angles = rng.uniform(0.0, 2.0 * np.pi, 20)
    radii = np.sqrt(rng.uniform(0.0, 1.2, 20))
    pts = np.column_stack(
        [np.zeros(20), np.zeros(20), radii * np.cos(angles), radii * np.sin(angles)]
    )
    speeds = field_values(cd.generator, jets.seed(pts, order=0))
    assert np.abs(speeds).max() < 1e-9


# ---------------------------------------------------------------------------
# 4. zero-locus census across the catalogue
# ---------------------------------------------------------------------------

CENSUS = {
    "disc_d4(1,1)": 0,
    "disc_d4(1,-1)": 1,
    "cotangent_t2(1,0)": 2,
    "s1_d3(1,0)": 1,
    "free_action_planar(1)": 1,
    "free_action_planar(2)": 2,
    "free_action_planar(3)": 3,
}


@criterion(4, "boundary zero-locus component census")
def test_c04_legendrian_census():
    got = {spec: _legendrian(spec).count for spec in CENSUS}
    assert got == CENSUS, got


# ---------------------------------------------------------------------------
# 5. collar flow lemmas: exit outward, flow inward, graze in place
# ---------------------------------------------------------------------------


def _zero_level_drift(model, chart_index, point, direction):
    try:
        res = flow.integrate(model, chart_index, point, direction=direction, max_time=1.0)
    except ImmediateExit:
        return 0.0
    return float(np.abs(res.points - res.points[0]).max())


@criterion(5, "collar flow lemmas on 200 boundary starts per model")
def test_c05_flow_lemmas():
    runs = 0
    for spec in registry.ZOO:
        model = _model(spec)

        # sign portrait: moment-map sign must match the exit direction at
        # every sampled boundary start away from the zero level
        portrait = flow.boundary_sign_portrait(model, samples=200, seed=0)
        assert portrait.total_mismatches == 0, (spec, portrait)

        for ci, cd in enumerate(model.charts):
            if cd.chart.boundary is None or cd.metric is None:
                continue
            rng = np.random.default_rng([0, 5, ci])
            pts = sample_boundary(cd.chart, 40, rng, accept=cd.boundary_accept)
            hv = cd.hamiltonian(jets.seed(pts, order=0)).value

            # positive level: ascending flow leaves through the boundary at once
            for p in pts[hv > 1e-6][:3]:
                with pytest.raises(ImmediateExit):
                    flow.integrate(model, ci, p, direction=1, max_time=1.0)
                runs += 1

            # negative level: ascending flow enters the interior and ascends
            for p in pts[hv < -1e-6][:3]:
                res = flow.integrate(model, ci, p, direction=1, max_time=1.0)
                assert res.monotone, (spec, ci, p)
                if len(res.points) > 1 and res.chart_indices[1] == ci:
                    jc1 = jets.seed(res.points[1][None, :], order=0)
                    assert float(cd.chart.boundary(jc1).value[0]) <= 1e-9
                runs += 1

        # zero level: starts found by the zero-locus tracer stay put
        for comp in _legendrian(spec).components:
            cd = model.charts[comp.chart_index]
            loop = np.asarray(comp.loop)
            picks = loop[:: max(1, len(loop) // 3)][:3]
            hz = cd.hamiltonian(jets.seed(picks, order=0)).value
            assert np.abs(hz).max() < 1e-10, (spec, np.abs(hz).max())
            for p in picks:
                for direction in (1, -1):
                    drift = _zero_level_drift(model, comp.chart_index, p, direction)
                    assert drift < 1e-6, (spec, p, direction, drift)
                    runs += 1

        # interior trajectories ascend/descend monotonically
        for ci, cd in enumerate(model.charts):
            if cd.metric is None:
                continue
            rng = np.random.default_rng([0, 6, ci])
            for p in sample_domain(cd.chart, 2, rng):
                for direction in (1, -1):
                    try:
                        res = flow.integrate(model, ci, p, direction=direction, max_time=1.0)
                    except ImmediateExit:
                        continue
                    assert res.monotone, (spec, ci, p, direction)
                    runs += 1
    _notes[5] = f"{runs} trajectories"


# ---------------------------------------------------------------------------
# 6. orbit-closure taxonomy and its start-point independence
# ---------------------------------------------------------------------------


def _reclassify_from_midpoint(model, oc, want):
    res = oc.upward or oc.downward
    assert res is not None and len(res.points) >= 3
    mid = len(res.points) // 2
    again = flow.classify_orbit(model, res.chart_indices[mid], res.points[mid])
    assert again.kind == want, (want, again.kind, again.detail)


@criterion(6, "orbit closures classify as disc / annulus / sphere")
def test_c06_orbit_taxonomy():
    model = _model("disc_d4(2,3)")
    oc = flow.classify_orbit(model, 0, (0.5, 0.0, 0.0, 0.0))
    assert oc.kind == "disc", (oc.kind, oc.detail)
    _reclassify_from_midpoint(model, oc, "disc")

    model = _model("s1_d3(2,1)")
    oc = flow.classify_orbit(model, 0, (0.0, 0.0, 0.0, 0.25))
    assert oc.kind == "annulus", (oc.kind, oc.detail)
    _reclassify_from_midpoint(model, oc, "annulus")

    model = blowup_d4(3, 1, 0.1)
    oc = flow.classify_orbit(model, 0, (0.0, 0.0, 0.5, -0.2))
    assert oc.kind == "sphere", (oc.kind, oc.detail)
    _reclassify_from_midpoint(model, oc, "sphere")


# ---------------------------------------------------------------------------
# 7. global structure: extrema, critical surfaces, boundary connectivity
# ---------------------------------------------------------------------------


@criterion(7, "one extremum cluster, <=1 critical surface, connected boundary")
def test_c07_global_structure():
    for spec in registry.ZOO:
        model = _model(spec)
        ext = critical.extrema_analysis(model, seed=0)
        assert ext.interior_max_clusters <= 1, (spec, ext)
        assert ext.interior_min_clusters <= 1, (spec, ext)
        assert critical.critical_surface_census(model, seed=0) <= 1, spec
        assert critical.boundary_connectivity(model, seed=0) == 1, spec


# ---------------------------------------------------------------------------
# 8. genus decompositions match brute force
# ---------------------------------------------------------------------------


@criterion(8, "genus decompositions equal brute-force enumeration to g=100")
def test_c08_decompositions():
    for genus in range(101):
        got = [(d.h, d.k) for d in enumerate_decompositions(genus)]
        want = [
            (h, k)
            for h in range(genus + 1)
            for k in range(1, 2 * genus + 2)
            if 2 * h + k - 1 == genus
        ]
        assert got == sorted(want), genus
    assert [(d.h, d.k) for d in enumerate_decompositions(0)] == [(0, 1)]
    assert [(d.h, d.k) for d in enumerate_decompositions(1)] == [(0, 2)]


# ---------------------------------------------------------------------------
# 9. surgery certificates: contact identification, equivariance, gluing
# ---------------------------------------------------------------------------


def _overlap_points(rng, count):
    pts = []
    while len(pts) < count:
        c = rng.uniform(-1, 1, 4)
        x2 = c[0] ** 2 + c[1] ** 2
        y2 = c[2] ** 2 + c[3] ** 2
        cap = 0.3025 * handles.flare_profile_value(x2)
        if np.exp(-0.1) + 0.003 < x2 < 0.997 and y2 < 0.9 * cap:
            pts.append(c)
    return np.array(pts)


@criterion(9, "surgery: contact identification, equivariance, smooth gluing")
def test_c09_surgery_certificates():
    base = _model("s1_d3(1,0)")

    # the attaching map pulls the standard contact form back to the
    # saddle block's boundary form
    phi = handles.attaching_map()
    emb = handles.face_embedding()
    rng = np.random.default_rng(8)
    pts = np.column_stack(
        [rng.uniform(0, 2 * np.pi, 50), rng.uniform(-0.5, 0.5, (50, 2))]
    )
    jc = jets.seed(pts, order=2)
    res = coeff_residual(
        pulled_back(phi, handles.contact_form_standard().coefficients, jc),
        pulled_back(emb, handles._saddle_chart_data(1.0, 1.0).alpha().coefficients, jc),
    )
    assert np.abs(res).max() < 1e-10

    # the orbit neighbourhood pulls the boundary contact form back to the
    # standard model form
    nb = handles.standard_neighborhood(base)
    rng = np.random.default_rng(9)
    pts = np.column_stack(
        [rng.uniform(0, 2 * np.pi, 50), rng.uniform(-0.3, 0.3, (50, 2))]
    )
    jc = jets.seed(pts, order=2)
    res = coeff_residual(
        pulled_back(nb.embed, base.charts[0].alpha().coefficients, jc),
        handles.contact_form_standard().coefficients(jc),
    )
    assert np.abs(res).max() < 1e-10

    glued = _model("attach_2handle(s1_d3(1,0))")
    bcd, hcd = glued.charts
    to_base = glued.transitions[0]
    overlap = _overlap_points(np.random.default_rng(10), count=50)

    # circle action commutes with the gluing map
    thetas = np.random.default_rng(11).uniform(0, 2 * np.pi, 50)
    one = to_base.map.apply(hcd.action_map(thetas, overlap[:1])[0][:, 0])
    two = bcd.chart.wrap(bcd.action_map(thetas, to_base.map.apply(overlap[:1]))[0][:, 0])
    assert np.abs(one - two).max() < 1e-10

    # the glued moment map is continuous across the seam
    h_handle = hcd.hamiltonian(jets.seed(overlap, order=0)).value
    h_base = bcd.hamiltonian(jets.seed(to_base.map.apply(overlap), order=0)).value
    assert np.abs(h_handle - h_base).max() < 1e-9

    # surgery creates exactly one interior critical point, of index 2
    clusters = critical.find_fixed_points(glued)
    assert len(clusters) == 1, clusters
    assert clusters[0].index == 2 and not clusters[0].touches_boundary
    assert clusters[0].chart_index == 1


# ---------------------------------------------------------------------------
# 10. reports are byte-identical across repeated seeded runs
# ---------------------------------------------------------------------------


@criterion(10, "seeded verification reports are byte-identical")
def test_c10_deterministic_reports():
    for spec in ("s1_d3(2,1)", "blowup_d4(1,-1,0.2)", "attach_2handle(s1_d3(1,0))"):
        cfg = RunConfig(samples=160)
        first = run_all(registry.build(spec), cfg).to_json()
        second = run_all(registry.build(spec), cfg).to_json()
        assert first == second, spec
        assert isinstance(first, bytes) and first
