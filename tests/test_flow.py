"""Gradient-flow integration, orbit classification, boundary censuses."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamflow import critical, flow, jets, registry
from hamflow.basic import cotangent_t2, disc_d4, s1_d3
from hamflow.blowup import blowup_d4
from hamflow.chart import Chart, sample_boundary, sample_domain
from hamflow.errors import ImmediateExit
from hamflow.forms import field_values
from hamflow.planar import free_action_planar
from oracles import orbit_near, project_to_zero_set, reference_integrate, rk4_endpoint, stabilizer_order, values_gradient


def test_disc_trajectory_endpoints():
    m = disc_d4(2, 3)
    up = flow.integrate(m, 0, [0.5, 0, 0, 0], direction=1)
    down = flow.integrate(m, 0, [0.5, 0, 0, 0], direction=-1)
    assert up.termination == "boundary"
    assert np.abs(up.end_point - [1.0, 0, 0, 0]).max() < 1e-8
    assert down.termination == "critical_set"
    assert np.abs(down.end_point).max() < 1e-6
    assert up.monotone and down.monotone


@pytest.mark.parametrize(
    "start,rate",
    [
        ([0.5, 0, 0, 0], 2),
        ([0, 0, 0.3, 0.4], 3),
        # 5.0e-4 from the boundary in time: the crossing falls inside the first step
        ([0.999, 0, 0, 0], 2),
    ],
)
def test_boundary_event_matches_closed_form(start, rate):
    # on disc_d4(2,3) the ascent scales the point by exp(rate * t) inside
    # one weight plane, so it reaches the unit sphere at t = -ln|start| / rate
    m = disc_d4(2, 3)
    res = flow.integrate(m, 0, start, direction=1)
    radius = np.linalg.norm(start)
    assert res.termination == "boundary"
    assert abs(res.times[-1] + np.log(radius) / rate) < 1e-9
    assert np.abs(res.end_point - np.array(start) / radius).max() < 1e-10
    boundary = m.charts[0].chart.boundary(jets.seed(res.end_point[None, :], order=0)).value[0]
    assert abs(boundary) <= 1e-10


def test_monotone_along_random_starts():
    m = s1_d3(2, 1)
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = rng.uniform(-0.4, 0.4, 4)
        p[0] = rng.uniform(0, 2 * np.pi)
        for direction in (1, -1):
            res = flow.integrate(m, 0, p, direction=direction)
            assert res.monotone
            assert res.termination == "boundary"
            diffs = np.diff(res.h_values) * direction
            assert diffs.min() > -1e-12


def test_orbit_trio():
    disc = flow.classify_orbit(disc_d4(2, 3), 0, [0.5, 0, 0, 0])
    assert disc.kind == "disc"
    ann = flow.classify_orbit(s1_d3(2, 1), 0, [1.0, 0.3, -0.2, 0.1])
    assert ann.kind == "annulus"
    sph = flow.classify_orbit(blowup_d4(3, 1, 0.2), 0, [0.0, 0.0, 0.5, -0.2])
    assert sph.kind == "sphere"
    assert sph.downward.end_chart == 1


def test_sphere_flow_switches_chart():
    res = flow.integrate(blowup_d4(3, 1, 0.2), 0, [0.0, 0.0, 0.5, -0.2], direction=-1)
    assert res.termination == "critical_set"
    assert res.end_chart == 1
    assert np.abs(res.end_point).max() < 1e-6


def test_fixed_point_and_constant_orbit():
    m = disc_d4(2, 3)
    assert flow.classify_orbit(m, 0, [0, 0, 0, 0]).kind == "fixed_point"
    oc = flow.classify_orbit(s1_d3(1, 0), 0, [0.3, 1.0, 0.0, 0.0])
    assert oc.kind == "constant_legendrian"


def test_immediate_exit_on_outward_boundary_start():
    m = disc_d4(1, 1)
    with pytest.raises(ImmediateExit):
        flow.integrate(m, 0, [1.0, 0, 0, 0], direction=1)


def test_time_budget_ends_with_max_time(monkeypatch):
    m = disc_d4(1, 1)
    start = [0.1, 0.05, 0.0, 0.02]
    res = flow.integrate(m, 0, start, direction=1, max_time=0.01)
    assert res.termination == "max_time"
    assert res.times[-1] == pytest.approx(0.01, abs=1e-15)
    # an orbit whose flow runs out of time is left unresolved
    integrate_many = flow.integrate_many
    monkeypatch.setattr(flow, "integrate_many", lambda *a, **kw: integrate_many(*a, **kw, max_time=0.01))
    oc = flow.classify_orbit(m, 0, start)
    assert oc.kind == "unresolved"
    assert oc.detail == "upward flow ended with max_time"


@pytest.mark.parametrize(
    "point,expect",
    [
        ([0, 0, 0, 0], 0),
        ([0.5, 0, 0, 0], 2),
        ([0, 0, 0.5, 0], 3),
        ([0.3, 0, 0.4, 0], 1),
    ],
)
def test_stabilizers_of_weighted_rotation(point, expect):
    assert flow.stabilizer_of(disc_d4(2, 3), 0, point) == expect


def test_stabilizer_free_translation():
    assert flow.stabilizer_of(s1_d3(1, 0), 0, [0.3, 0.2, 0.1, 0.0]) == 1


@pytest.mark.parametrize(
    "model, point, order",
    [
        (disc_d4(65, 1), (0.3, 0.0, 0.0, 0.0), 65),
        (disc_d4(97, 2), (0.3, 0.0, 0.0, 0.0), 97),
        (s1_d3(70, 1), (1.0, 0.0, 0.0, 0.0), 70),
    ],
    ids=["disc_d4(65,1)", "disc_d4(97,2)", "s1_d3(70,1)"],
)
def test_stabilizer_above_64(model, point, order):
    # the isotropy Z_N has no divisor-free bound: N is the one moving weight
    assert flow.stabilizer_of(model, 0, point) == order


@settings(max_examples=60, deadline=None)
@given(
    weights=st.tuples(st.integers(-100, 100), st.integers(-100, 100)).filter(lambda w: math.gcd(*w) == 1),
    planes=st.lists(
        st.one_of(st.just(0.0), st.floats(0.05, 0.95)).flatmap(
            lambda r: st.tuples(st.just(r), st.floats(0.0, 2 * np.pi))
        ),
        min_size=2,
        max_size=2,
    ),
)
@example(weights=(65, 1), planes=[(0.3, 0.0), (0.0, 0.0)])
@example(weights=(1, 0), planes=[(0.0, 0.0), (0.5, 1.0)])
def test_stabilizer_matches_every_turn(weights, planes):
    # plane radii are 0 or at least 0.05, so a turn by 2 pi / k with k not
    # dividing a moving weight moves the point by far more than 1e-9
    model = disc_d4(*weights)
    point = [c for r, phi in planes for c in (r * np.cos(phi), r * np.sin(phi))]
    assert flow.stabilizer_of(model, 0, point) == stabilizer_order(model.charts[0], point)


def test_liouville_flow_matches_closed_form():
    m = s1_d3(1, 0)
    cd = m.charts[0]
    start = np.array([0.7, 0.3, -0.2, 0.4])
    sigma = 0.5
    end = rk4_endpoint(lambda p: field_values(cd.liouville, jets.seed(p[None, :], order=1))[0], start, sigma, 400)
    expect = np.array(
        [
            start[0],
            np.exp(sigma / 2) * start[1],
            np.exp(sigma / 2) * start[2],
            np.exp(sigma) * start[3],
        ]
    )
    assert np.abs(end - expect).max() < 1e-9


def test_boundary_portrait_signs():
    port = flow.boundary_sign_portrait(s1_d3(1, 0), samples=200, seed=0)
    assert port.has_positive and port.has_negative
    assert port.total_mismatches == 0
    pos_only = flow.boundary_sign_portrait(disc_d4(1, 1), samples=200, seed=0)
    assert pos_only.has_positive and not pos_only.has_negative
    assert pos_only.total_mismatches == 0


@pytest.mark.parametrize(
    "build,expect",
    [
        (lambda: disc_d4(1, 1), 0),
        (lambda: disc_d4(1, -1), 1),
        (lambda: cotangent_t2(1, 0), 2),
        (lambda: s1_d3(1, 0), 1),
        (lambda: free_action_planar(2), 2),
    ],
)
def test_legendrian_census(build, expect):
    res = flow.detect_legendrian_set(build(), seed=0)
    assert res.count == expect
    for comp in res.components:
        assert comp.closed
        assert comp.torus_certified
        assert comp.tangent_pairing < 1e-10


def test_legendrian_level_value():
    # zero level of the moment map on the unit boundary sphere sits at
    # the negative root of h^2 - 4h = 1
    res = flow.detect_legendrian_set(s1_d3(2, 1), seed=0)
    assert res.count == 1
    h_level = 2.0 - np.sqrt(5.0)
    loop = res.components[0].loop
    assert np.abs(loop[:, 3] - h_level).max() < 1e-8


# (termination, sha256 of the times, points, h_values and chart_indices
# bytes) of each trajectory, keyed by "spec/chart/start/direction"; a faster
# route to the same stepper must reproduce every trajectory bit for bit, and
# a new stepper re-records them once it keeps each run within
# END_TOLERANCE of the reference integrator
PINNED_STARTS = {
    "disc_d4(1,1)": 2,
    "s1_d3(2,1)": 2,
    "attach_2handle(s1_d3(1,0))": 1,
    "prequantization_s2()": 1,
}
TRAJECTORY_PINS = {
    "disc_d4(1,1)/0/0/1": ("boundary", "3840a3c9db0052a26c8f5b4f20769eb85e5655be792aedbcc7f608c7bec0e17f"),
    "disc_d4(1,1)/0/0/-1": ("critical_set", "10a4abcdec02353898fb78e87a11d2edd1ffa4922b88f43331bdf9cfcc6ba3ab"),
    "disc_d4(1,1)/0/1/1": ("boundary", "820b222e02375e6b07bb27173965bef7d9357fc5ab885442282089b7d69f1328"),
    "disc_d4(1,1)/0/1/-1": ("critical_set", "c558ede523e520e26e88230f5d1f11beb6f17d6dff0ebb24f465d20710909590"),
    "s1_d3(2,1)/0/0/1": ("boundary", "73ad33ecb0e3690e71019e4e4917cf67031d6cf4b4411b7d0aaf81428557b5cc"),
    "s1_d3(2,1)/0/0/-1": ("boundary", "3cf44ee7ab490b47d06596c006c7c7307e5160b29e01b5e201b9a774e5641607"),
    "s1_d3(2,1)/0/1/1": ("boundary", "f3d6c0e57adf602b82c5df107c9adb1e2cb485b4c235c7c310763d5738af7f3e"),
    "s1_d3(2,1)/0/1/-1": ("boundary", "39b4bc88174ccd3e44d8708a6e24124bcfaf280eb24c5ab737c82a387254c105"),
    "attach_2handle(s1_d3(1,0))/0/0/1": ("boundary", "7de99ed6dfe38903581559d55c05cdc6c383b456fe89e86564be75c145e13010"),
    "attach_2handle(s1_d3(1,0))/0/0/-1": ("boundary", "710229763e57f0abacd2d439280b6eb4e65bd57a58fea83c499c85908bf0882a"),
    "attach_2handle(s1_d3(1,0))/1/0/1": ("boundary", "7dbabed6562e7adb513db5a970a7135e2e43427ee49669ffed3ecfb7fbb1ae76"),
    "attach_2handle(s1_d3(1,0))/1/0/-1": ("boundary", "40b9cc16c3e8bc8e8d0f6e9130200368184a30644a1c667dc941f858fe8dab27"),
    "prequantization_s2()/0/0/1": ("boundary", "fe075e1fb840d5588ba7ac1fe8118b7d9b937923c4b56efeca2ef3d4d27b58d9"),
    "prequantization_s2()/0/0/-1": ("critical_set", "56167cbac4fb71b96af515caf54d0231671232f87500c768b738f61112e08506"),
    "prequantization_s2()/1/0/1": ("boundary", "32eadb5c08e7dc4271f9ace74b6699a567c9892bea7fff376ef3c661d5250180"),
    "prequantization_s2()/1/0/-1": ("critical_set", "17fcfb2db27b55e54b23ac87cd352af51d64150cfb95200076058ded9114ba60"),
    "prequantization_s2()/2/0/1": ("boundary", "a5567cb10087686b96ef25a41309c2f5195b98b63ff47c428842d74277983965"),
    "prequantization_s2()/2/0/-1": ("critical_set", "96c150f9f14058a0f8cf5e62b0b84fcac2d08428ebdaf738f67ea0d648fedc63"),
    # the start of test_sphere_flow_switches_chart; downward it crosses
    # into chart 1
    "blowup_d4(3,1,0.2)/0/-/1": ("critical_set", "d95ada12cff7124b3f587053d2a70222757e9b66eed9471b81e6a07d09aa39c1"),
    "blowup_d4(3,1,0.2)/0/-/-1": ("critical_set", "1cc54674fa75cd8cde6c821322ef6b8ae446bc42615eb83600a9a25d5f4f70ba"),
}


def _trajectory_pin(res):
    digest = hashlib.sha256()
    for arr in (res.times, res.points, res.h_values, np.array(res.chart_indices)):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return res.termination, digest.hexdigest()


def _pinned_runs():
    runs = {}
    for spec, count in PINNED_STARTS.items():
        model = registry.build(spec)
        for ci, cd in enumerate(model.charts):
            if cd.metric is None:
                continue
            starts = sample_domain(cd.chart, count, np.random.default_rng([7, ci]))
            for k, start in enumerate(starts):
                for direction in (1, -1):
                    runs[f"{spec}/{ci}/{k}/{direction}"] = (model, ci, start, direction)
    sphere = blowup_d4(3, 1, 0.2)
    for direction in (1, -1):
        runs[f"blowup_d4(3,1,0.2)/0/-/{direction}"] = (sphere, 0, [0.0, 0.0, 0.5, -0.2], direction)
    assert runs.keys() == TRAJECTORY_PINS.keys()
    return runs


def test_integrate_matches_pins():
    changed = [
        key
        for key, (model, ci, start, direction) in _pinned_runs().items()
        if _trajectory_pin(flow.integrate(model, ci, start, direction=direction))
        != TRAJECTORY_PINS[key]
    ]
    assert not changed


def test_batched_runs_match_pins():
    # one batch per model: every pinned run, plus a start on the boundary
    # whose upward velocity points out of the chart
    batches = {}
    for key, (model, ci, start, direction) in _pinned_runs().items():
        batches.setdefault(key.split("/")[0], (model, []))[1].append((key, (ci, start, direction)))
    changed = []
    for model, keyed in batches.values():
        ci = next(i for i, cd in enumerate(model.charts) if cd.chart.boundary is not None and cd.metric is not None)
        cd = model.charts[ci]
        refused = sample_boundary(cd.chart, 5, np.random.default_rng(3), accept=cd.boundary_accept)[0]
        keys, runs = zip(*keyed)
        *results, exit_ = flow.integrate_many(model, [*runs, (ci, refused, 1)])
        assert isinstance(exit_, ImmediateExit)
        changed += [key for key, res in zip(keys, results) if _trajectory_pin(res) != TRAJECTORY_PINS[key]]
    assert not changed


# how far the stepper may move a pinned run from the RK4 step-doubling
# reference: a boundary end is an event located to 1e-10 in the boundary
# value, a critical-set end a point where the speed fell below 1e-7
END_TOLERANCE = {"boundary": (1e-8, 1e-8), "critical_set": (1e-6, 1e-12)}


def test_stepper_matches_reference_within_tolerance():
    far = []
    for key, (model, ci, start, direction) in _pinned_runs().items():
        res = flow.integrate(model, ci, start, direction=direction)
        ref = reference_integrate(model, ci, start, direction)
        assert (res.termination, res.end_chart) == (ref.termination, ref.end_chart), key
        point_tol, h_tol = END_TOLERANCE[ref.termination]
        moved = np.abs(res.end_point - ref.end_point).max(), abs(res.h_values[-1] - ref.h_values[-1])
        if not (moved[0] <= point_tol and moved[1] <= h_tol):
            far.append((key, *moved))
    assert not far


def _drive_alone(model, ci, start, direction):
    """Run one trajectory generator on one-row values solves; (result, rows sent)."""
    traj = flow._trajectory(model, ci, start, direction, 60.0)
    sent = 0
    try:
        ci, p = next(traj)
        while True:
            sent += 1
            ci, p = traj.send(values_gradient(model.charts[ci], p[None, :])[0])
    except StopIteration as stop:
        return stop.value, sent


def test_integrator_counters():
    # the disc run shares its batch with the opposite direction; the
    # downward blow-up run switches from chart 0 into chart 1
    disc = disc_d4(2, 3)
    up_run = (disc, 0, [0.5, 0, 0, 0], 1)
    down_run = (blowup_d4(3, 1, 0.2), 0, [0.0, 0.0, 0.5, -0.2], -1)
    up = flow.integrate_many(disc, [up_run[1:], (0, [0.5, 0, 0, 0], -1)])[0]
    down = flow.integrate(*down_run)
    assert (up.termination, down.termination) == ("boundary", "critical_set")
    assert up.bisections > 0 and down.bisections == 0
    for res, run, switches in ((up, up_run, 0), (down, down_run, 1)):
        seq = res.chart_indices
        assert res.chart_switches == sum(a != b for a, b in zip(seq, seq[1:])) == switches
        assert res.accepted_steps == len(res.times) - 1
        # each step attempt asks for six stages; its first is the previous
        # step's last, so only the start and each chart entry add one
        assert res.velocity_evals == 1 + res.chart_switches + 6 * (res.accepted_steps + res.rejected_steps)
        alone, sent = _drive_alone(*run)
        assert _trajectory_pin(alone) == _trajectory_pin(res)
        assert res.velocity_evals == sent > 0


@pytest.mark.parametrize("max_time", [float("nan"), -1.0, 0.0])
def test_integrate_rejects_nonpositive_or_nan_time_budget(max_time):
    with pytest.raises(ValueError, match="max_time"):
        flow.integrate(disc_d4(1, 1), 0, [0.1, 0.05, 0.0, 0.02], max_time=max_time)


@pytest.mark.parametrize(
    "chart_index, start, direction, match",
    [
        # outside the boundary: the run used to end at once as "boundary", never moving
        (0, [2.0, 0.0, 0.0, 0.0], -1, "outside the boundary"),
        (0, [np.nan, 0.0, 0.0, 0.0], 1, "outside the boundary"),
        # direction 0 used to end as "critical_set" where the gradient is not 0
        (0, [0.5, 0.0, 0.0, 0.0], 0, "direction"),
        (0, [0.5, 0.0, 0.0, 0.0], 2, "direction"),
        # a chart index or start length the chart lacks used to raise IndexError
        (1, [0.5, 0.0, 0.0, 0.0], 1, "chart index"),
        (-1, [0.5, 0.0, 0.0, 0.0], 1, "chart index"),
        (0, [0.5, 0.0, 0.0], 1, "start has shape"),
    ],
)
def test_runs_that_cannot_start_are_refused(chart_index, start, direction, match):
    model = disc_d4(1, 1)
    with pytest.raises(ValueError, match=match):
        flow.integrate(model, chart_index, start, direction=direction)
    good = (0, [0.1, 0.05, 0.0, 0.02], 1)
    with pytest.raises(ValueError, match=match):
        flow.integrate_many(model, [good, (chart_index, start, direction)])
    if direction == 1:
        with pytest.raises(ValueError, match=match):
            flow.classify_orbit(model, chart_index, start)


def test_a_batch_with_a_metricless_chart_is_refused_before_any_run_steps(monkeypatch):
    model = registry.build("prequantization_s2()")
    assert model.charts[0].metric is not None and model.charts[3].metric is None
    p0 = sample_domain(model.charts[0].chart, 1, np.random.default_rng(0))[0]
    p3 = sample_domain(model.charts[3].chart, 1, np.random.default_rng(0))[0]
    # every run is built before it asks for its first velocity
    monkeypatch.setattr(flow, "_trajectory", lambda *args: pytest.fail("a run was built"))
    with pytest.raises(ValueError, match="chart 'total_north' carries no metric"):
        flow.integrate_many(model, [(0, p0, 1), (3, p3, 1)])


def test_a_start_within_1e_9_past_the_boundary_still_runs():
    """The start check reads the boundary value against 1e-9, as boundary samples are bisected to it."""
    model = disc_d4(1, 1)
    start = np.array([1.0 + 4e-10, 0.0, 0.0, 0.0])
    assert jets.value_at(model.charts[0].chart.boundary, start) <= 1e-9
    with pytest.raises(ImmediateExit):
        flow.integrate(model, 0, start, direction=1)
    assert flow.integrate(model, 0, start, direction=-1).termination == "critical_set"


def test_integrate_accepts_infinite_time_budget():
    res = flow.integrate(disc_d4(1, 1), 0, [0.1, 0.05, 0.0, 0.02], max_time=float("inf"))
    assert res.termination == "boundary"


# per spec: sha256 of each Legendrian component (chart_index, closed,
# torus_certified, repr(tangent_pairing), representative and loop bytes),
# the boundary_connectivity count, and one sha256 over the fixed-point
# clusters' (index, value, point bytes); all at seed 0
ZERO_LOCUS_PINS = {
    "disc_d4(1,-1)": (
        ["0a7a930481d71a03b9f64caed7ac5f4b17f2cad5a694ea6af54821dc97eabfca"],
        1,
        "eb0579bef4ce53be8edb5146d7cf759f57ac764bc84bcab3fca2e2c14cfffb44",
    ),
    # periodic coordinates
    "cotangent_t2(1,0)": (
        [
            "2fe907c6ac9f08d18f30162c9f0141b1eaf99362b529cd1261f19c71112e6fd2",
            "36e6d9f57c940a785ff6f5efab297dd756be6c0f7cccfb6c5b1ac00bc1e9492f",
        ],
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "free_action_planar(2)": (
        [
            "1eb4f9da148bd6d5114c47e075f259be92f913ffeb23f8167251298904256155",
            "8cce9f9e491fd43814853f28020aa35c5bd7975d5e4d81c2c63204df1e3b8c70",
        ],
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "s1_d3(1,0)": (
        ["617cd8e2f267df4232ccc174998b29fc2d28742efba1a6fe4f19f5aca9a0859a"],
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    # two charts
    "blowup_d4(1,-1,0.2)": (
        ["5bb39da9b177e62a6f64e3d551056333e0af02beb32db70d6d95927973e7e0ab"],
        1,
        "db6baf5f2b75b20181d0306989afa6d348c54369b09671c953f71c5e96cbde10",
    ),
}


def _component_pin(comp):
    digest = hashlib.sha256(
        repr(
            (comp.chart_index, comp.closed, comp.torus_certified, repr(comp.tangent_pairing))
        ).encode()
    )
    for arr in (comp.representative, comp.loop):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("spec", list(ZERO_LOCUS_PINS))
def test_legendrian_matches_pins(spec):
    model = registry.build(spec)
    comps = [_component_pin(c) for c in flow.detect_legendrian_set(model, seed=0).components]
    fixed = hashlib.sha256()
    for c in critical.find_fixed_points(model, seed=0):
        fixed.update(repr((c.index, c.value)).encode())
        fixed.update(np.ascontiguousarray(c.point).tobytes())
    got = (comps, critical.boundary_connectivity(model, seed=0), fixed.hexdigest())
    assert got == ZERO_LOCUS_PINS[spec]


# zero-set starts whose traces cross charts, as (chart, start, max_steps);
# the attach_2handle traces never close, so they are cut at 400 steps, after
# their switch from the saddle into the tube
TRACE_STARTS = {
    "cotangent_s2()": [
        (0, [1.0601170797274766, 0.012158126790029762, 0.0, 1.0000739182197214], 6000),
        (1, [-0.21532494469411312, 0.08062762935086197, 0.9622807017623151, -0.3603224506264112], 6000),
    ],
    "attach_2handle(s1_d3(1,0))": [
        (1, [0.47881356236965456, -0.15261872343015082, 0.30254543471283396, -0.09643439880227399], 400),
        (1, [-0.12716273021928545, 0.035822628762850785, -0.3056462974635524, 0.0861026955609999], 400),
    ],
}
# per start: closed, and (chart, sha256 of the cloud bytes) in the order
# the trace entered the charts
TRACE_PINS = {
    "cotangent_s2()": [
        (True, [
            (0, "8ab4c05c5875554fee63b42ac684060cde0597451f1fcf8df35911a345be6210"),
            (2, "18115df3119d1712010798fd18cc0b67d913f97a0debba1cf9d2e8b6406b5598"),
            (1, "15714e28bcf09149f1ebef811e1a4d2829dc3b92084ea0aae862205e1de87286"),
        ]),
        (True, [
            (1, "d909a1de3fd65b28940d4aa445377ef968be591cdc4051640624ea2f6600f3e0"),
            (0, "1d16c331c60f9ac0ce81d8d48b32044908cbb63381718534b6d396b0ce7f178d"),
            (2, "20d1365bff8c412a17e515a5eb44673917a1d674e9a60a0f5d8b7d8787bf70a5"),
        ]),
    ],
    "attach_2handle(s1_d3(1,0))": [
        (False, [
            (1, "1a709762ab469085fb8c597e1300be081aab797436f04c36330a468e40f9b3f0"),
            (0, "bd427576b89fef1b7d762e7f2a1832c445cba93ffa6b9c6ad4543c93de09f9ce"),
        ]),
        (False, [
            (1, "81cc6e387efca7f87dfbb3014e18b710be49d1c69457bc7eb4bda3ac1095467f"),
            (0, "ecd77ef2848e4fee6d68f9add5a5f970501aae0fb299f400a8c9d3b028e5078c"),
        ]),
    ],
}


@pytest.mark.parametrize("spec", list(TRACE_STARTS))
def test_trace_component_matches_pins(spec):
    model = registry.build(spec)
    got = []
    for ci, start, max_steps in TRACE_STARTS[spec]:
        traced, closed = flow._trace_component(model, ci, np.array(start), 0.04, max_steps)
        clouds = [(k, hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()) for k, v in traced.items()]
        assert len(clouds) > 1
        got.append((closed, clouds))
    assert got == TRACE_PINS[spec]


def _assert_point_matches_one_row(cd, p, got):
    """``got``, the walk's one-row projection of ``p``, is the one-row oracle's point, flag
    and Jacobian or None, bitwise."""
    (got_q, got_ok, got_jac), (want_q, want_ok, want_jac) = got, project_to_zero_set(cd, p)
    assert got_q.tobytes() == want_q.tobytes() and got_ok == want_ok
    assert (got_jac is None) == (want_jac is None)
    assert want_jac is None or got_jac.tobytes() == want_jac.tobytes()
    return got


@pytest.mark.parametrize("spec", list(TRACE_STARTS))
def test_walk_projections_match_one_row_projections(spec, monkeypatch):
    # every projection of the pinned cross-chart traces, each step checked as it is taken
    model = registry.build(spec)
    seen = []
    one_row = flow._project_point

    def checked(cd, p, steps):
        assert steps == 60
        seen.append(p)
        return _assert_point_matches_one_row(cd, p, one_row(cd, p, steps))

    monkeypatch.setattr(flow, "_project_point", checked)
    for ci, start, max_steps in TRACE_STARTS[spec]:
        flow._trace_component(model, ci, np.array(start), 0.04, max_steps)
    assert len(seen) > 100


# the nine zero_locus census models of the benchmark
CENSUS_SPECS = [
    "disc_d4(1,1)", "disc_d4(1,-1)", "cotangent_t2(1,0)", "s1_d3(1,0)", "free_action_planar(1)",
    "free_action_planar(2)", "free_action_planar(3)", "s1_d3(2,1)", "blowup_d4(1,-1,0.2)",
]


def _assert_projections_match_one_row(cd, rows):
    """The batch gives each row's one-row oracle point and flag bitwise, and so does the
    walk's one-row projection, which also gives the oracle's Jacobian or None."""
    q, ok = flow._project_to_zero_set(cd, rows)
    assert q.shape == rows.shape and ok.shape == (rows.shape[0],)
    for k, p in enumerate(rows):
        want_q, want_ok, _ = project_to_zero_set(cd, p)
        assert q[k].tobytes() == want_q.tobytes() and ok[k] == want_ok
        _assert_point_matches_one_row(cd, p, flow._project_point(cd, p, 60))
    return q, ok


@pytest.mark.parametrize("spec", CENSUS_SPECS)
def test_batched_projection_matches_one_row_projections(spec):
    # every candidate detect_legendrian_set projects, as one batch per chart
    model = registry.build(spec)
    batches = 0
    for seed in (0, 1, 97):
        for _, cd, pts in model.boundary_clouds(600, seed, 97):
            hv = cd.hamiltonian(jets.seed(pts, order=0)).value
            if hv.min() > 1e-8 or hv.max() < -1e-8:
                continue
            _assert_projections_match_one_row(cd, pts[np.argsort(np.abs(hv))[:60]])
            batches += 1
    assert batches >= (0 if spec == "disc_d4(1,1)" else 3)


def test_singular_and_nan_rows_leave_the_rest_of_the_batch_alone():
    # the origin has a zero (boundary, moment) Jacobian, so its first Gram
    # matrix is singular and it stops unconverged where it is; a NaN row
    # runs its 60 steps; neither changes another row
    cd = registry.build("disc_d4(1,-1)").charts[0]
    rows = sample_boundary(cd.chart, 12, np.random.default_rng(3))
    planted = np.insert(rows, [4, 9], [[0.0, 0.0, 0.0, 0.0], [0.5, np.nan, 0.1, 0.2]], axis=0)
    q, ok = _assert_projections_match_one_row(cd, planted)
    assert not ok[4] and q[4].tobytes() == planted[4].tobytes()
    assert not ok[10] and np.isnan(q[10]).all()
    alone, alone_ok = flow._project_to_zero_set(cd, rows)
    keep = np.ones(len(planted), dtype=bool)
    keep[[4, 10]] = False
    assert q[keep].tobytes() == alone.tobytes() and ok[keep].tolist() == alone_ok.tolist() and alone_ok.all()
    for p in planted[[4, 10]]:
        assert flow._project_point(cd, p, 60)[1:] == (False, None)


def test_torus_certificate_refuses_nan_images():
    """An orbit image whose boundary or moment value is NaN is not on the zero
    set: with either made NaN where x1 < -0.3, which 9 of the 24 images of the
    disc's one component reach, the certificate fails."""
    model = registry.build("disc_d4(1,-1)")
    (comp,) = flow.detect_legendrian_set(model, seed=0).components
    cd, p = model.charts[comp.chart_index], comp.representative
    assert comp.torus_certified and flow._torus_certificate(cd, p)

    def nan_where_low(field):
        return lambda jc: field(jc) * np.where(jc[0].value < -0.3, np.nan, 1.0)

    images = jets.seed(flow._orbit_images(cd, p[None], 24)[0], order=0)
    nan_h = dataclasses.replace(cd, hamiltonian=nan_where_low(cd.hamiltonian))
    assert np.isnan(nan_h.hamiltonian(images).value).sum() == 9
    nan_f = dataclasses.replace(cd, chart=dataclasses.replace(cd.chart, boundary=nan_where_low(cd.chart.boundary)))
    for bad in (nan_h, nan_f):
        assert not flow._torus_certificate(bad, p)


ORBIT_CHART = Chart(
    name="cloud", coords=("t", "x", "y"), periodic=(True, False, False),
    box_lo=(0.0, -1.0, -1.0), box_hi=(2 * np.pi, 1.0, 1.0),
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    orbits=st.integers(1, 6),
    angles=st.integers(1, 300),
    n=st.integers(1, 2500),
    nan_row=st.one_of(st.none(), st.integers(0, 299)),
)
@example(seed=1, orbits=1, angles=128, n=2000, nan_row=None)
@example(seed=2, orbits=3, angles=129, n=2000, nan_row=128)
@example(seed=3, orbits=6, angles=300, n=2001, nan_row=0)
def test_orbit_near_matches_every_pair(seed, orbits, angles, n, nan_row):
    """Each orbit of a stack is near the cloud exactly when it is on its own."""
    rng = np.random.default_rng(seed)
    lo, hi = ORBIT_CHART.box_lo, ORBIT_CHART.box_hi
    stack = rng.uniform(lo, hi, size=(orbits, angles, 3))
    cloud = rng.uniform(lo, hi, size=(n, 3))
    if nan_row is not None:
        stack[nan_row % orbits, nan_row % angles, 1] = np.nan  # a NaN drops that angle
    radius = float(rng.uniform(0.0, 0.3))
    got = flow._orbits_near(ORBIT_CHART, stack, cloud, radius)
    assert got.tolist() == [orbit_near(ORBIT_CHART, orbit, cloud, radius) for orbit in stack]


def test_orbit_near_drops_an_angle_with_a_nan():
    cloud = np.array([[1.0, 0.0, 0.0], [2.0, 0.5, 0.5]])
    orbits = np.array([[[1.0, np.nan, 0.0], [4.0, 0.0, 0.0]], [[2.0, 0.5, 0.6], [4.0, 0.0, 0.0]]])
    assert flow._orbits_near(ORBIT_CHART, orbits, cloud, 0.5).tolist() == [False, True]
    orbits[0, 0, 1] = 0.1
    assert flow._orbits_near(ORBIT_CHART, orbits, cloud, 0.5).tolist() == [True, True]
