"""Chart domains, periodic bookkeeping, and boundary sampling."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from hamflow import jets, registry
from hamflow.chart import Chart, SmoothMap, sample_boundary, sample_domain
from hamflow.errors import BoundaryNotFound, EmptyDomainSuspected
from hamflow.forms import field_values


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


@pytest.mark.parametrize("lo,hi", [(-np.pi, np.pi), (0.0, np.pi), (0.0, 2 * np.pi + 1e-9)])
def test_periodic_box_must_be_full_circle(lo, hi):
    with pytest.raises(ValueError, match="periodic"):
        Chart(name="cyl", coords=("t", "h"), periodic=(True, False), box_lo=(lo, -1.0), box_hi=(hi, 1.0))


def test_in_box_skips_periodic_coordinates():
    chart = Chart(
        name="cyl",
        coords=("t", "h"),
        periodic=(True, False),
        box_lo=(0.0, -1.0),
        box_hi=(2 * np.pi, 1.0),
    )
    assert chart.in_box([7.0, 1.0 + 1e-7], 1e-6)
    assert not chart.in_box([1.0, 1.0 + 1e-5], 1e-6)
    assert not chart.in_box([1.0, -1.0 - 1e-5], 1e-6)


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
    # the Legendrian filters apply action maps and the generator to whole
    # candidate batches, and the integrator the order-1 gradient to the
    # requests of one round; each row must be bitwise its one-row result
    model = registry.build(spec)
    for ci, cd in enumerate(model.charts):
        pts = sample_domain(cd.chart, 64, np.random.default_rng([5, ci]))
        # two arbitrary irrational turns, 1/phi and sqrt(2) - 1, and one of the 128 orbit angles
        for theta in (2 * np.pi * 0.6180339887498949, 2 * np.pi * 0.41421356237309515, 2 * np.pi * 5 / 128):
            amap = cd.action_map(theta)
            rows = np.concatenate([amap.apply(p) for p in pts])
            assert np.array_equal(amap.apply(pts), rows, equal_nan=True)
        fields = [cd.generator]
        if cd.metric is not None:
            fields.append(cd.gradient_field())
        for fieldfn in fields:
            rows = np.concatenate([field_values(fieldfn, jets.seed(p[None, :], order=1)) for p in pts])
            assert np.array_equal(field_values(fieldfn, jets.seed(pts, order=1)), rows, equal_nan=True)


def test_transfers_follow_model_order_and_skip_rejected_transitions():
    # the three blow-up charts overlap pairwise, so some points reach two
    # charts and some images land inside a chart whose predicate says no
    model = registry.build("blowup_d4(1,-1,0.2)")
    reached_two = rejected_inside = 0
    for ci, cd in enumerate(model.charts):
        for p in sample_domain(cd.chart, 200, np.random.default_rng([5, ci])):
            hits = list(model.transfers(ci, p, 1e-9))
            rank = [model.transitions.index(tr) for tr, _ in hits]
            assert rank == sorted(rank)
            for tr, q in hits:
                assert np.array_equal(q, tr.map.apply(p)[0])
            reached_two += len(hits) == 2
            for tr in model.transitions_from(ci):
                q = tr.map.apply(p)[0]
                if not tr.valid(p[None])[0] and model.charts[tr.dst].chart.contains(q, 1e-9)[0]:
                    assert tr.dst not in [t.dst for t, _ in hits]
                    rejected_inside += 1
    assert reached_two and rejected_inside


def test_transfers_yield_nothing_when_every_image_is_outside():
    model = registry.build("blowup_d4(1,-1,0.2)")
    p = np.array([3.0, 0.0, 3.0, 0.0])
    assert all(tr.valid(p[None])[0] for tr in model.transitions_from(0))
    assert list(model.transfers(0, p, 1e-6)) == []


def test_transfers_slack_admits_image_just_outside():
    # north cap -> equator strip: with a^2 = 0.49 and pa = b = 0 the image
    # has |pt| = 0.7 pb and w = 0.49, so its cosphere value is pb^2 - 1
    model = registry.build("cotangent_s2()")
    p = np.array([0.7, 0.0, 0.0, np.sqrt(1.0 + 1e-7)])
    assert list(model.transfers(1, p, 1e-9)) == []
    (tr, q), = model.transfers(1, p, 1e-6)
    assert tr.dst == 0
    assert 1e-9 < model.charts[0].chart.domain[-1](jets.seed(q[None], order=0)).value[0] < 1e-6
