"""Chart domains, periodic bookkeeping, and boundary sampling."""

from __future__ import annotations

import numpy as np
import pytest

from hamflow import jets, registry
from hamflow.chart import Chart, SmoothMap, sample_boundary, sample_domain
from hamflow.errors import BoundaryNotFound, EmptyDomainSuspected
from hamflow.forms import field_values
from hamflow.flow import GOLDEN, SILVER


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
    vals = chart.boundary_values(pts).value
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
    fore = SmoothMap(source=polar, target=cart, forward=fwd, inverse=back)
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
    # candidate batches; each row must be bitwise its one-row result
    model = registry.build(spec)
    for ci, cd in enumerate(model.charts):
        pts = sample_domain(cd.chart, 64, np.random.default_rng([5, ci]))
        for theta in (2 * np.pi * GOLDEN, 2 * np.pi * SILVER, 2 * np.pi * 5 / 128):
            amap = cd.action_map(theta)
            rows = np.concatenate([amap.apply(p) for p in pts])
            assert np.array_equal(amap.apply(pts), rows, equal_nan=True)
        rows = np.concatenate([field_values(cd.generator, jets.seed(p[None, :], order=1)) for p in pts])
        assert np.array_equal(field_values(cd.generator, jets.seed(pts, order=1)), rows, equal_nan=True)


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
