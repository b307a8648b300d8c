"""Gradient-flow integration, orbit classification, boundary censuses."""

import hashlib

import numpy as np
import pytest

from hamflow import critical, flow, registry
from hamflow.basic import cotangent_t2, disc_d4, s1_d3
from hamflow.blowup import blowup_d4
from hamflow.chart import sample_domain
from hamflow.errors import ImmediateExit
from hamflow.planar import free_action_planar


def test_disc_trajectory_endpoints():
    m = disc_d4(2, 3)
    up = flow.integrate(m, 0, [0.5, 0, 0, 0], direction=1)
    down = flow.integrate(m, 0, [0.5, 0, 0, 0], direction=-1)
    assert up.termination == "boundary"
    assert np.abs(up.end_point - [1.0, 0, 0, 0]).max() < 1e-8
    assert down.termination == "critical_set"
    assert np.abs(down.end_point).max() < 1e-6
    assert up.monotone and down.monotone


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
    integrate = flow.integrate
    monkeypatch.setattr(flow, "integrate", lambda *a, **kw: integrate(*a, **kw, max_time=0.01))
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


def test_liouville_flow_matches_closed_form():
    m = s1_d3(1, 0)
    cd = m.charts[0]
    start = np.array([0.7, 0.3, -0.2, 0.4])
    sigma = 0.5
    path = flow.integrate_vector_field(cd, cd.liouville, start, sigma, steps=400)
    expect = np.array(
        [
            start[0],
            np.exp(sigma / 2) * start[1],
            np.exp(sigma / 2) * start[2],
            np.exp(sigma) * start[3],
        ]
    )
    assert np.abs(path[-1] - expect).max() < 1e-9


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
# integrator must reproduce every trajectory bit for bit
PINNED_STARTS = {
    "disc_d4(1,1)": 2,
    "s1_d3(2,1)": 2,
    "attach_2handle(s1_d3(1,0))": 1,
    "prequantization_s2()": 1,
}
TRAJECTORY_PINS = {
    "disc_d4(1,1)/0/0/1": ("boundary", "83dd519228b91ef4b960a70d852c9de02f88316ab88e4b3f0115bcef935d87a9"),
    "disc_d4(1,1)/0/0/-1": ("critical_set", "1033395a042948a3982c47e7c73e6647ff6798b5a2d79ee76e0acef29284766d"),
    "disc_d4(1,1)/0/1/1": ("boundary", "b18cb632b7997303ad500641fc405b68837ff75790e58e89bb309ddd0f6a0d7f"),
    "disc_d4(1,1)/0/1/-1": ("critical_set", "f8aeabedefc0a4120b23ccaa9632c1b96e1671e07e6d225109b382f40174ff61"),
    "s1_d3(2,1)/0/0/1": ("boundary", "23802e2c655b8f9138efe170345339d4bdc29da274512de8aea0c0c513d0bd40"),
    "s1_d3(2,1)/0/0/-1": ("boundary", "1788629971c7c5d4baf86b3c0315a12fbde2afcff79df1466e96826458c87955"),
    "s1_d3(2,1)/0/1/1": ("boundary", "41b01472b656e39155eafd324def1f57ccb4fb8b9fd5212263e86ecc9b719799"),
    "s1_d3(2,1)/0/1/-1": ("boundary", "87961d21749922ca77016ce0a3a56f3e92de092ad03aabddd9fa3744a6bf6de2"),
    "attach_2handle(s1_d3(1,0))/0/0/1": ("boundary", "5cabb2f58a84b71c4f47e9681d36d6853e2fd4a3755ba158c6024901269229ef"),
    "attach_2handle(s1_d3(1,0))/0/0/-1": ("boundary", "cd5c558a9471172ed205b013f037acfdbb4d075bfb6bd4c9c7b6826efcc4afee"),
    "attach_2handle(s1_d3(1,0))/1/0/1": ("boundary", "611c6147fbbbcec07143cf7299918951e3129f09292bbad211661f44b5b1a1d6"),
    "attach_2handle(s1_d3(1,0))/1/0/-1": ("boundary", "1712633c6f635bf1f31bed9de23cd0a36e8677ce851a222375f1d8310ebdfb9c"),
    "prequantization_s2()/0/0/1": ("boundary", "01c5a7d67af70384fe14bac83fc288d30f5fd48220819e01ca436c1d14ab246c"),
    "prequantization_s2()/0/0/-1": ("critical_set", "a7db0a13f096a33c5c27648d777b094f66d62fed461413f69d8781a3548073d7"),
    "prequantization_s2()/1/0/1": ("boundary", "8836e376d80d1bb182ccd7636c8dcac0db6baddffaada3d8c22c8eca4b8c7259"),
    "prequantization_s2()/1/0/-1": ("critical_set", "15295bd45538819cc94913bc37a918f460456496eff69810333f40a710d0572b"),
    "prequantization_s2()/2/0/1": ("boundary", "b0a27ff00145cc7e13232754c3e9b4720f4db4ed8bed82c62ac19fcdfac7ff2c"),
    "prequantization_s2()/2/0/-1": ("critical_set", "e1b16899ee62d85c1c4ce15193dd84ba137a103cbfdba73813da8ebefe0774c5"),
    # the start of test_sphere_flow_switches_chart; downward it crosses
    # into chart 1
    "blowup_d4(3,1,0.2)/0/-/1": ("critical_set", "80534a6309d7aecc39ff3be47f664dda03d18c1bc748f26763bec319205da63a"),
    "blowup_d4(3,1,0.2)/0/-/-1": ("critical_set", "5a0ff9aa6e889da1ad01465e9ccd3ea206423ed0f4a15a997eda27eb28526435"),
}


def _trajectory_pin(res):
    digest = hashlib.sha256()
    for arr in (res.times, res.points, res.h_values, np.array(res.chart_indices)):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return res.termination, digest.hexdigest()


def test_integrate_matches_pins():
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
    changed = [
        key
        for key, (model, ci, start, direction) in runs.items()
        if _trajectory_pin(flow.integrate(model, ci, start, direction=direction))
        != TRAJECTORY_PINS[key]
    ]
    assert not changed


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
