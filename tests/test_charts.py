"""Chart domains, periodic bookkeeping, and boundary sampling."""

from __future__ import annotations

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamflow import chart as chart_module
from hamflow import jets, registry, verifier
from hamflow.chart import Chart, SmoothMap, sample_boundary, sample_domain
from hamflow.errors import BoundaryNotFound, EmptyDomainSuspected
from hamflow.forms import constant_form, field_values
from hamflow.model import ChartData
from oracles import bisect_boundary_80, sample_boundary_per_batch, values_gradient


def _ball_chart(radius: float = 1.0) -> Chart:
    def ball(jc):
        acc = jc[0].sq()
        for c in jc[1:]:
            acc = acc + c.sq()
        return acc - radius**2

    return Chart(
        name="ball",
        coords=("x", "y", "z"),
        periodic=(False, False, False),
        box_lo=(-radius,) * 3,
        box_hi=(radius,) * 3,
        domain=(ball,),
        boundary=ball,
    )


def test_sample_domain_respects_inequalities():
    chart = _ball_chart()
    rng = np.random.default_rng(0)
    pts = sample_domain(chart, 500, rng)
    assert pts.shape == (500, 3)
    assert (np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12).all()


def test_sample_domain_prefix_stable():
    chart = _ball_chart()
    small = sample_domain(chart, 50, np.random.default_rng(42))
    large = sample_domain(chart, 400, np.random.default_rng(42))
    assert np.array_equal(small, large[:50])


def test_sample_domain_empty_domain_detected():
    def sliver(jc):
        return jc[0].sq() + jc[1].sq() + jc[2].sq() - 1e-12

    chart = Chart(
        name="sliver",
        coords=("x", "y", "z"),
        periodic=(False,) * 3,
        box_lo=(-1.0,) * 3,
        box_hi=(1.0,) * 3,
        domain=(sliver,),
    )
    with pytest.raises(EmptyDomainSuspected):
        sample_domain(chart, 10, np.random.default_rng(1))


def test_sample_boundary_lands_on_zero_level():
    chart = _ball_chart(1.3)
    rng = np.random.default_rng(7)
    pts = sample_boundary(chart, 100, rng)
    assert pts.shape == (100, 3)
    vals = chart.boundary(jets.seed(pts, order=0)).value
    assert np.abs(vals).max() < 1e-9
    radii = np.linalg.norm(pts, axis=1)
    assert np.allclose(radii, 1.3, atol=1e-9)


def test_sample_boundary_without_boundary_raises():
    chart = Chart(
        name="plane",
        coords=("x", "y"),
        periodic=(False, False),
        box_lo=(-1.0, -1.0),
        box_hi=(1.0, 1.0),
    )
    with pytest.raises(BoundaryNotFound):
        sample_boundary(chart, 5, np.random.default_rng(0))


def _line_chart(reach: float) -> Chart:
    """A 1-d chart on [-1, 1] whose boundary zero level sits at |x| = reach."""

    def ball(jc):
        return jc[0].sq() - reach**2

    return Chart(
        name="line",
        coords=("x",),
        periodic=(False,),
        box_lo=(-1.0,),
        box_hi=(1.0,),
        domain=(ball,),
        boundary=ball,
    )


def test_sample_boundary_march_stops_at_400_steps():
    # steps are 0.02 long and starts lie in [-1, 1], so after the 400-step
    # cap a ray has reached at most |x| = 9: a zero level at 9.01 is never
    # found, one at 8.9 is found by rays starting beyond 0.9
    with pytest.raises(BoundaryNotFound):
        sample_boundary(_line_chart(9.01), 5, np.random.default_rng(3))
    pts = sample_boundary(_line_chart(8.9), 5, np.random.default_rng(3))
    assert np.allclose(np.abs(pts), 8.9, atol=1e-9)


# sha256 over seeds s = 0, 1, 97 of sample_boundary(chart, 500,
# default_rng([s, 5, ci]), accept=boundary_accept) for every boundary chart
# of the ZOO (an error hashes as its repr); recorded with the one-step march
BOUNDARY_SHA256 = {
    ("disc_d4(1,1)", 0): "a38972461f79919f7091e4b52ac08c419a9bc52393cdd96333dd1620cf4a941d",
    ("disc_d4(1,-1)", 0): "a38972461f79919f7091e4b52ac08c419a9bc52393cdd96333dd1620cf4a941d",
    ("disc_d4(2,3)", 0): "a38972461f79919f7091e4b52ac08c419a9bc52393cdd96333dd1620cf4a941d",
    ("disc_d4(1,0)", 0): "a38972461f79919f7091e4b52ac08c419a9bc52393cdd96333dd1620cf4a941d",
    ("s1_d3(1,0)", 0): "7cbf4c3ec01cd1da23a3d1bb5fd5fddd0ad4aedc95ff9598529b3c322e95536d",
    ("s1_d3(0,1)", 0): "7cbf4c3ec01cd1da23a3d1bb5fd5fddd0ad4aedc95ff9598529b3c322e95536d",
    ("s1_d3(2,1)", 0): "7cbf4c3ec01cd1da23a3d1bb5fd5fddd0ad4aedc95ff9598529b3c322e95536d",
    ("cotangent_t2(1,0)", 0): "37560a61d676531310428a2ad05f5370ccc84b349a998847302cf29d9e1ff7ed",
    ("cotangent_s2()", 0): "8665f6c8e1788cf921546f3dc61e21fc5c39cb3627b9bb051897839f1d20765a",
    ("cotangent_s2()", 1): "a5932096a64bae97da3316613e26be48f6ca32338872459959fa966f7f59755b",
    ("cotangent_s2()", 2): "744c779d7d0e29fd55c21877e33dd905e8448badcaf041cf1415050c2dcb5b09",
    ("weinstein_2handle()", 0): "62c0b56575fabfa295091c56d21a0f26ab662d0eada8370233add590f9bc3bdc",
    ("weinstein_1handle(1)", 0): "9a149c5e918a070466fe89ab53db7890abf2c0a880be6107cdd74e11d05592ad",
    ("free_action_planar(1)", 0): "63943a7cc97e01a60a1c917fa7d308b1ca7d1e9504ce42ded38cb1ae44894539",
    ("free_action_planar(2)", 0): "baabe134b4355d8c57bc5cf16eaf0f65799c2aec3dbe7167c044fd187e091b8d",
    ("free_action_planar(3)", 0): "2bdcb7f278dc04a0919f8c902e59179a649dafa91f04807a5be1911338c3a526",
    ("disc_bundle_over_surface()", 0): "6112ef0fdf0dc20e808879c545ff7e1515031bc2a00472e9d158622d222352f3",
    ("prequantization_s2()", 0): "179dcacef2e89db8e69b8bca41684d82e319932f0e95592fb4088b5afbc3e8f2",
    ("prequantization_s2()", 1): "9048e1135c36068830e4286fcc66c5bdb070fd34ba937c8fce3bca051df528fa",
    ("prequantization_s2()", 2): "db5e729b49e8535a9ffbe859a9486caf47e524857d825d2f79b2b7b30e07c133",
    ("blowup_d4(1,-1,0.2)", 2): "99d4b9d7827127aef0659a3694af588ee25252a996e2b993b95460f53e3ed7c0",
    ("attach_2handle(s1_d3(1,0))", 0): "f57dfc9ae9d531b784facd5ecee44aea02b48af0814197f233f4fd9045f1ad95",
    ("attach_2handle(s1_d3(1,0))", 1): "80d5c37b1fb0c7c681a7af7f7df4d9d72d12cb6ceef82cef3aa03420e686e709",
}


def _boundary_digest(cd, ci: int) -> str:
    h = hashlib.sha256()
    for s in (0, 1, 97):
        try:
            pts = sample_boundary(cd.chart, 500, np.random.default_rng([s, 5, ci]), accept=cd.boundary_accept)
            h.update(np.ascontiguousarray(pts, dtype=float).tobytes())
        except (BoundaryNotFound, EmptyDomainSuspected) as e:
            h.update(repr(e).encode())
    return h.hexdigest()


def test_sample_boundary_matches_pins():
    digests = {}
    for spec in registry.ZOO:
        model = registry.build(spec)
        for ci, cd in enumerate(model.charts):
            if cd.chart.boundary is not None:
                digests[(spec, ci)] = _boundary_digest(cd, ci)
    assert digests == BOUNDARY_SHA256


def _boundary_charts():
    """The data of every boundary chart of the ZOO and the controls, each labelled with its model and index."""
    models = [(spec, registry.build(spec)) for spec in registry.ZOO]
    models += [(name, build()) for name, (_, build) in verifier.CONTROLS.items()]
    return [
        pytest.param(cd, id=f"{label}[{ci}]")
        for label, model in models
        for ci, cd in enumerate(model.charts)
        if cd.chart.boundary is not None
    ]


@pytest.mark.parametrize("cd", _boundary_charts())
def test_sample_boundary_matches_the_per_batch_sampler(cd):
    """Pooled crossings and the fixed-point stop give the per-batch, 80-halving
    sampler's points bit for bit and leave the stream where it left it."""
    for s in (0, 1, 97):
        for n in (1, 64, 500, 2000):
            rng, ref = np.random.default_rng([s, 5, n]), np.random.default_rng([s, 5, n])
            got = sample_boundary(cd.chart, n, rng, accept=cd.boundary_accept)
            want = sample_boundary_per_batch(cd.chart, n, ref, accept=cd.boundary_accept)
            assert got.shape == want.shape == (n, cd.chart.dim), (cd.chart.name, s, n)
            assert got.tobytes() == want.tobytes(), (cd.chart.name, s, n)
            assert rng.bit_generator.state == ref.bit_generator.state, (cd.chart.name, s, n)


def test_sample_boundary_raises_where_the_per_batch_sampler_does():
    """A zero level no ray reaches, and an ``accept`` that keeps nothing, both
    raise the per-batch sampler's error after the same draws."""
    cases = [
        (_line_chart(9.01), None),
        (_ball_chart(1.3), lambda pts: np.zeros(pts.shape[0], dtype=bool)),
    ]
    for chart, accept in cases:
        rng, ref = np.random.default_rng([7, 29]), np.random.default_rng([7, 29])
        with pytest.raises(BoundaryNotFound) as want:
            sample_boundary_per_batch(chart, 5, ref, accept=accept)
        with pytest.raises(BoundaryNotFound, match=f"^{re.escape(str(want.value))}$"):
            sample_boundary(chart, 5, rng, accept=accept)
        assert rng.bit_generator.state == ref.bit_generator.state


def _nan_side(jc):
    """A side inequality that holds for x >= 0 and is NaN for x < 0."""
    return jc[0] * 0.0 + np.where(jc[0].value < 0.0, np.nan, -1.0)


def test_no_ray_marches_on_into_a_nan_side_inequality():
    """The unit disc with a side inequality that is NaN on its left half: the
    domain draws keep no point there, and no ray marches on into it.  The march
    used to read a NaN side as met, and 182 of these 500 samples lay on the
    left arc, out to x = -1.  A crossing found at the step where the side face
    also trips is still kept, so a sample the chart does not contain lies past
    the face by less than one march step (0.02)."""

    def disc(jc):
        return jc[0].sq() + jc[1].sq() - 1.0

    chart = Chart(
        name="half_disc",
        coords=("x", "y"),
        periodic=(False, False),
        box_lo=(-1.0, -1.0),
        box_hi=(1.0, 1.0),
        domain=(disc, _nan_side),
        boundary=disc,
    )
    assert (sample_domain(chart, 500, np.random.default_rng(0))[:, 0] >= 0.0).all()
    pts = sample_boundary(chart, 500, np.random.default_rng(0))
    outside = ~chart.contains(pts, slack=1e-9)
    assert (pts[outside, 0] > -0.02).all()


def test_contains_inside_margin_and_the_ray_march_agree_on_a_nan_field():
    """``Chart.contains``, ``ChartData.inside_margin`` and the ray march's side
    inequalities all read a NaN field through ``holds``, where it never holds."""
    ball = lambda jc: jc[0].sq() - 0.81
    chart = Chart("line", ("x",), (False,), (-1.0,), (1.0,), domain=(ball, _nan_side), boundary=ball)
    cd = ChartData(
        chart=chart,
        omega=constant_form({}),
        hamiltonian=lambda jc: jc[0],
        weights={(0,): 1},
        liouville=lambda jc: [jc[0]],
        liouville_domain=(_nan_side,),
    )
    pts = np.array([[-0.5], [-1e-3], [0.0], [0.5]])
    want = [False, False, True, True]
    assert chart_module.holds((_nan_side,), jets.seed(pts, order=0), 0.0).tolist() == want
    assert chart_module.holds((), jets.seed(pts, order=0), -1.0).tolist() == [True] * 4
    assert chart.contains(pts).tolist() == want
    assert cd.inside_margin(pts).tolist() == want
    # rays that march left reach the NaN half before the zero level at -0.9 and are abandoned
    found = sample_boundary(chart, 50, np.random.default_rng(4))
    assert np.allclose(found, 0.9, atol=1e-9)


def _counted_circle():
    """The unit circle as a 2-d chart's boundary, with a count of boundary evaluations."""
    calls = []

    def circle(jc):
        calls.append(jc[0].n)
        return jc[0].sq() + jc[1].sq() - 1.0

    chart = Chart(
        name="circle", coords=("x", "y"), periodic=(False, False),
        box_lo=(-1.0, -1.0), box_hi=(1.0, 1.0), domain=(circle,), boundary=circle,
    )
    return chart, calls


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    nan_rows=st.lists(st.integers(0, 39), max_size=2),
    zero_rows=st.lists(st.integers(0, 39), max_size=2),
)
@example(seed=0, n=30, nan_rows=[], zero_rows=[])
@example(seed=1, n=1, nan_rows=[0], zero_rows=[])
@example(seed=2, n=5, nan_rows=[], zero_rows=[3])
def test_bisect_boundary_matches_80_halvings(seed, n, nan_rows, zero_rows):
    """Stopping once no bracket moves gives the 80-halving bisection's points and mask bitwise.

    Rows cross the unit circle from inside.  A NaN row never compares equal,
    so its batch runs all 80 halvings.  A row whose crossing sits at x = 0
    (its segment symmetric about (0, 1)) halves toward a coordinate whose
    neighbouring doubles are far closer than 80 halvings reach, so its batch
    runs all 80 as well; a batch of ordinary rows stops sooner.
    """
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2 * np.pi, n)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    inside = u * rng.uniform(0.0, 0.99, (n, 1))
    outside = u * rng.uniform(1.01, 1.5, (n, 1))
    for k in zero_rows:
        w = rng.uniform(1e-6, 0.5)
        inside[k % n], outside[k % n] = (-w, 1.0 - w), (w, 1.0 + w)
    for k in nan_rows:
        inside[k % n, k % 2] = np.nan
    chart, calls = _counted_circle()
    got, ok = chart_module._bisect_boundary(chart, inside.copy(), outside.copy())
    halvings = len(calls) - 2  # one evaluation at the inside ends and one of the final residual
    want, want_ok = bisect_boundary_80(chart, inside, outside)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(ok, want_ok)
    assert (halvings == 80) == bool(nan_rows or zero_rows)


def test_periodic_wrap_and_distance():
    chart = Chart(
        name="cyl",
        coords=("t", "h"),
        periodic=(True, False),
        box_lo=(0.0, -1.0),
        box_hi=(2 * np.pi, 1.0),
    )
    wrapped = chart.wrap(np.array([7.0, 0.5]))
    assert wrapped[0] == pytest.approx(7.0 - 2 * np.pi)
    a = np.array([0.1, 0.0])
    b = np.array([2 * np.pi - 0.1, 0.0])
    assert chart.distance(a, b) == pytest.approx(0.2, abs=1e-12)


def test_wrap_reduces_the_last_axis_of_any_shape():
    """A point, a batch and a stack of batches wrap bitwise as their rows do
    one at a time, periodic coordinates alone, without touching the input."""
    chart = Chart(
        name="torus_cyl",
        coords=("t", "h", "s"),
        periodic=(True, False, True),
        box_lo=(0.0, -1.0, 0.0),
        box_hi=(2 * np.pi, 1.0, 2 * np.pi),
    )
    stack = np.random.default_rng(2).uniform(-20.0, 20.0, size=(4, 5, 3))
    before = stack.copy()
    want = np.where(chart.periodic, np.mod(stack, 2 * np.pi), stack)
    batches = np.array([chart.wrap(batch) for batch in stack])
    points = np.array([[chart.wrap(p) for p in batch] for batch in stack])
    for got in (chart.wrap(stack), batches, points):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(stack, before)


@pytest.mark.parametrize("lo,hi", [(-np.pi, np.pi), (0.0, np.pi), (0.0, 2 * np.pi + 1e-9)])
def test_periodic_box_must_be_full_circle(lo, hi):
    with pytest.raises(ValueError, match="periodic"):
        Chart(name="cyl", coords=("t", "h"), periodic=(True, False), box_lo=(lo, -1.0), box_hi=(hi, 1.0))


def _box_excess(chart, rng, n=20_000):
    """How far outside its box the farthest draw that ``contains(slack=1e-6)`` accepts lies.

    Draws are uniform over the box widened by 10% on each non-periodic side.
    """
    lo, hi = np.array(chart.box_lo), np.array(chart.box_hi)
    free = ~np.array(chart.periodic)
    pad = np.where(free, 0.1 * (hi - lo), 0.0)
    pts = rng.uniform(lo - pad, hi + pad, size=(n, chart.dim))
    inside = pts[chart.contains(pts, slack=1e-6)]
    return float(np.max(np.maximum(lo - inside, inside - hi)[:, free], initial=0.0))


@pytest.mark.parametrize(
    "spec",
    list(registry.ZOO)
    + sorted(verifier.CONTROLS)
    + ["attach_2handle(disc_d4(1,-1))", "blowup_d4(3,1,0.2)", "blowup_d4(2,-3,0.25)", "disc_d4(2,-3)"],
)
def test_every_chart_domain_lies_inside_its_box(spec):
    # flows, traces and fixed points test membership by ``contains`` alone
    model = verifier.CONTROLS[spec][1]() if spec in verifier.CONTROLS else registry.build(spec)
    for ci, cd in enumerate(model.charts):
        assert _box_excess(cd.chart, np.random.default_rng([5, ci])) <= 1e-5, (spec, cd.chart.name)


def test_a_box_that_cuts_the_domain_fails_the_box_rule():
    chart = registry.build("disc_d4(1,1)").charts[0].chart
    shrunk = dataclasses.replace(chart, box_lo=(-0.9,) * 4, box_hi=(0.9,) * 4)
    assert _box_excess(chart, np.random.default_rng(5)) <= 1e-5
    assert _box_excess(shrunk, np.random.default_rng(5)) > 1e-5


def test_smooth_map_roundtrip_modulo_period():
    polar = Chart(
        name="polar",
        coords=("r", "th"),
        periodic=(False, True),
        box_lo=(0.2, 0.0),
        box_hi=(1.5, 2 * np.pi),
    )
    cart = Chart(
        name="cart",
        coords=("x", "y"),
        periodic=(False, False),
        box_lo=(-2.0, -2.0),
        box_hi=(2.0, 2.0),
    )

    def fwd(jc):
        r, th = jc
        return [r * jets.cos(th), r * jets.sin(th)]

    def inv(jc):
        x, y = jc
        return [jets.sqrt(x.sq() + y.sq()), jets.atan2(y, x)]

    back = SmoothMap(source=cart, target=polar, forward=inv)
    fore = SmoothMap(source=polar, target=cart, forward=fwd)
    rng = np.random.default_rng(3)
    pts = np.stack([rng.uniform(0.3, 1.4, 200), rng.uniform(0, 2 * np.pi, 200)], axis=1)
    out = back.apply(fore.apply(pts))
    disp = polar.displacement(pts, out)
    assert np.abs(disp).max() < 1e-10


def test_jacobian_of_map():
    polar = Chart(
        name="polar",
        coords=("r", "th"),
        periodic=(False, True),
        box_lo=(0.2, 0.0),
        box_hi=(1.5, 2 * np.pi),
    )
    cart = Chart(
        name="cart",
        coords=("x", "y"),
        periodic=(False, False),
        box_lo=(-2.0, -2.0),
        box_hi=(2.0, 2.0),
    )

    def fwd(jc):
        r, th = jc
        return [r * jets.cos(th), r * jets.sin(th)]

    m = SmoothMap(source=polar, target=cart, forward=fwd)
    jac = m.jacobian(np.array([[1.2, 0.7]]))[0]
    c, s = np.cos(0.7), np.sin(0.7)
    assert np.allclose(jac, [[c, -1.2 * s], [s, 1.2 * c]], atol=1e-14)


@pytest.mark.parametrize("spec", registry.ZOO)
def test_batched_maps_match_one_row_maps(spec):
    # the Legendrian filters apply the action at many angles and the
    # generator to whole candidate batches, and the integrator the order-1
    # gradient to the requests of one round; each row must be bitwise its
    # one-row, one-angle result
    model = registry.build(spec)
    for ci, cd in enumerate(model.charts):
        pts = sample_domain(cd.chart, 64, np.random.default_rng([5, ci]))
        # two arbitrary irrational turns, 1/phi and sqrt(2) - 1, and one of the 128 orbit angles
        thetas = (2 * np.pi * 0.6180339887498949, 2 * np.pi * 0.41421356237309515, 2 * np.pi * 5 / 128)
        for theta, images in zip(thetas, cd.action_map(thetas, pts)[0]):
            rows = np.concatenate([cd.action_map([theta], p[None])[0][0] for p in pts])
            assert np.array_equal(images, rows, equal_nan=True)
        reads = [lambda p: field_values(cd.generator, jets.seed(p, order=1))]
        if cd.metric is not None:
            reads.append(lambda p: values_gradient(cd, p))
        for read in reads:
            rows = np.concatenate([read(p[None, :]) for p in pts])
            assert np.array_equal(read(pts), rows, equal_nan=True)


def test_transfers_follow_model_order_and_skip_rejected_transitions():
    # the three blow-up charts overlap pairwise, so some points reach two
    # charts and some images land inside a chart whose predicate says no;
    # the whole batch crosses with the rows and images of the one-row calls
    model = registry.build("blowup_d4(1,-1,0.2)")
    reached_two = rejected_inside = 0
    for ci, cd in enumerate(model.charts):
        pts = sample_domain(cd.chart, 200, np.random.default_rng([5, ci]))
        one_row: dict[int, list] = {}
        for k, p in enumerate(pts):
            hits = list(model.transfers(ci, p[None], 1e-9))
            rank = [model.transitions.index(tr) for tr, _, _ in hits]
            assert rank == sorted(rank)
            for tr, rows, (q,) in hits:
                assert rows.tolist() == [0]
                assert np.array_equal(q, tr.map.apply(p)[0])
                one_row.setdefault(model.transitions.index(tr), []).append((k, q))
            reached_two += len(hits) == 2
            for tr in model.transitions_from(ci):
                q = tr.map.apply(p)[0]
                if not tr.valid(p[None])[0] and model.charts[tr.dst].chart.contains(q, 1e-9)[0]:
                    assert tr.dst not in [t.dst for t, _, _ in hits]
                    rejected_inside += 1
        crossed = model.transfers(ci, pts, 1e-9)
        batch = {model.transitions.index(tr): (rows, images) for tr, rows, images in crossed}
        assert list(batch) == sorted(one_row)
        for rank, (rows, images) in batch.items():
            assert rows.tolist() == [k for k, _ in one_row[rank]]
            assert np.array_equal(images, np.array([q for _, q in one_row[rank]]))
    assert reached_two and rejected_inside


def test_transfers_yield_nothing_when_every_image_is_outside():
    model = registry.build("blowup_d4(1,-1,0.2)")
    p = np.array([3.0, 0.0, 3.0, 0.0])
    assert all(tr.valid(p[None])[0] for tr in model.transitions_from(0))
    assert list(model.transfers(0, p[None], 1e-6)) == []


def test_transfers_slack_admits_image_just_outside():
    # north cap -> equator strip: with a^2 = 0.49 and pa = b = 0 the image
    # has |pt| = 0.7 pb and w = 0.49, so its cosphere value is pb^2 - 1
    model = registry.build("cotangent_s2()")
    p = np.array([0.7, 0.0, 0.0, np.sqrt(1.0 + 1e-7)])
    assert list(model.transfers(1, p[None], 1e-9)) == []
    (tr, _, (q,)), = model.transfers(1, p[None], 1e-6)
    assert tr.dst == 0
    assert 1e-9 < model.charts[0].chart.domain[-1](jets.seed(q[None], order=0)).value[0] < 1e-6
