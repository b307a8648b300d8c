"""The shared identity residuals and the builders' moment self-check: the
self-check passes on every catalog chart and raises MomentMapMismatch on a
scaled or partly non-finite generator; a 2-form that needs a second jet
order raises JetOrderError at order 1 instead of giving a residual.  Every
chart's generator is the derivative of its action at angle 0."""

import dataclasses

import numpy as np
import pytest

from hamflow import forms, jets, registry, verifier
from hamflow.chart import Chart, sample_domain
from hamflow.errors import JetOrderError, MomentMapMismatch
from hamflow.model import ChartData, assert_moment, moment_residual, rotation, self_check_points


def _doubled(generator):
    return lambda jc: [c * 2.0 for c in generator(jc)]


def _nan_above(generator, cut):
    """The generator, NaN where the first coordinate exceeds ``cut``."""

    def fn(jc):
        poison = np.where(jc[0].value > cut, np.nan, 0.0)
        return [c + poison for c in generator(jc)]

    return fn


@pytest.mark.parametrize("spec", registry.ZOO)
def test_assert_moment_catches_corrupted_generators(spec):
    for cd in registry.build(spec).charts:
        assert_moment(cd)
        with pytest.raises(MomentMapMismatch):
            assert_moment(dataclasses.replace(cd, generator=_doubled(cd.generator)))
        # NaN on the half of the self-check points past the median first coordinate
        cut = float(np.median(self_check_points(cd)[:, 0]))
        with pytest.raises(MomentMapMismatch, match="nan"):
            assert_moment(dataclasses.replace(cd, generator=_nan_above(cd.generator, cut)))


def _primitive_chart() -> ChartData:
    """Rotation of the square, H = |p|^2 / 2, omega = dx ^ dy as d of x * (d/dx x) dy.

    The primitive's coefficient takes a partial, so omega consumes one jet
    order and d(H) another.
    """
    primitive = forms.KForm(1, 2, lambda jc: {(1,): jc[0] * jc[0].partial(0)})
    return ChartData(
        chart=Chart("square", ("x", "y"), (False, False), (-1.0, -1.0), (1.0, 1.0)),
        omega=forms.exterior_derivative(primitive),
        hamiltonian=lambda jc: (jc[0] * jc[0] + jc[1] * jc[1]) * 0.5,
        generator=lambda jc: [jc[1] * -1.0, jc[0]],
        action=lambda theta: lambda jc: list(rotation(theta, jc[0], jc[1])),
    )


def test_moment_residual_raises_where_omega_needs_order_two():
    cd = _primitive_chart()
    pts = np.random.default_rng(4).uniform(-0.9, 0.9, size=(16, 2))
    assert moment_residual(cd, jets.seed(pts, order=2)).max() == 0.0
    with pytest.raises(JetOrderError):
        moment_residual(cd, jets.seed(pts, order=1))
    with pytest.raises(JetOrderError):
        assert_moment(cd)


def _models():
    """Every catalog model and every negative control, by name."""
    builders = {spec: (lambda spec=spec: registry.build(spec)) for spec in registry.ZOO}
    builders.update({name: builder for name, (_, builder) in verifier.CONTROLS.items()})
    return builders


@pytest.mark.parametrize("name", list(_models()))
def test_generator_is_the_derivative_of_the_action(name):
    """Each chart's generator is d/dtheta of its action at theta = 0, and the
    action is a circle action: a homomorphism from R that is 2*pi-periodic."""
    h = 1e-5
    for cd in _models()[name]().charts:
        chart = cd.chart
        pts = sample_domain(chart, 32, np.random.default_rng([3, 1907]))
        ahead, behind = cd.action_map(h).apply(pts), cd.action_map(-h).apply(pts)
        slope = chart.displacement(behind, ahead) / (2 * h)
        gen = forms.field_values(cd.generator, jets.seed(pts, order=0))
        assert np.max(np.abs(slope - gen)) < 1e-8, chart.name
        composed = cd.action_map(0.7).apply(cd.action_map(1.9).apply(pts))
        assert np.max(np.abs(chart.displacement(cd.action_map(2.6).apply(pts), composed))) < 1e-12, chart.name
        full_turn = cd.action_map(2 * np.pi).apply(pts)
        assert np.max(np.abs(chart.displacement(pts, full_turn))) < 1e-12, chart.name
