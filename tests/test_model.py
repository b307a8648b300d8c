"""The shared identity residuals and the builders' moment self-check: the
self-check passes on every catalog chart and raises MomentMapMismatch on
negated weights or a partly non-finite moment map; a 2-form that needs a
second jet order raises JetOrderError at order 1 instead of giving a
residual.  Every chart declares its action by one weight table, which it
refuses when non-integer or ineffective and keeps as a read-only copy; its
generator is the derivative of its action at angle 0, and its contact form
alpha = i_Y omega lists its terms in index order."""

import dataclasses

import numpy as np
import pytest

from hamflow import forms, jets, registry, verifier
from hamflow.chart import Chart, sample_domain
from hamflow.errors import IneffectiveAction, JetOrderError, MomentMapMismatch
from hamflow.model import ChartData, assert_moment, moment_residual, self_check_points


def _nan_above(hamiltonian, cut):
    """The moment map, NaN where the first coordinate exceeds ``cut``."""
    return lambda jc: hamiltonian(jc) * np.where(jc[0].value > cut, np.nan, 1.0)


@pytest.mark.parametrize("spec", registry.ZOO)
def test_assert_moment_catches_corrupted_generators(spec):
    for cd in registry.build(spec).charts:
        assert_moment(cd)
        negated = {key: -w for key, w in cd.weights.items()}
        with pytest.raises(MomentMapMismatch):
            assert_moment(dataclasses.replace(cd, weights=negated))
        # NaN on the half of the self-check points past the median first coordinate
        cut = float(np.median(self_check_points(cd)[:, 0]))
        with pytest.raises(MomentMapMismatch, match="nan"):
            assert_moment(dataclasses.replace(cd, hamiltonian=_nan_above(cd.hamiltonian, cut)))


def _primitive_chart() -> ChartData:
    """Rotation of the square, H = |p|^2 / 2, omega = dx ^ dy as d of x * (d/dx x) dy.

    The primitive's coefficient takes a partial, so omega consumes one jet
    order and d(H) another.
    """
    def primitive(jc):
        return {(1,): jc[0] * jc[0].partial(0)}

    return ChartData(
        chart=Chart("square", ("x", "y"), (False, False), (-1.0, -1.0), (1.0, 1.0)),
        omega=forms.KForm(2, 2, lambda jc: forms.d_coeffs(primitive(jc), 2)),
        hamiltonian=lambda jc: (jc[0] * jc[0] + jc[1] * jc[1]) * 0.5,
        weights={(0, 1): 1.0},
        liouville=lambda jc: [jc[0] * 0.5, jc[1] * 0.5],
    )


@pytest.mark.parametrize("spec", registry.ZOO)
def test_alpha_lists_its_terms_in_index_order(spec):
    """Index order fixes the operand order of every later sum over alpha's terms."""
    for cd in registry.build(spec).charts:
        pts = self_check_points(cd, n=8)
        keys = list(cd.alpha().coefficients(jets.seed(pts, order=1)))
        assert keys == sorted(keys), cd.chart.name


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
def test_chart_data_declares_one_weight_table(name):
    """The weight table is a chart's only declaration of its action: the
    generator and the action cannot be replaced on their own, and a table
    with a non-integer weight or a common divisor is refused."""
    for cd in _models()[name]().charts:
        for derived in ("generator", "action"):
            with pytest.raises(TypeError):
                dataclasses.replace(cd, **{derived: getattr(cd, derived)})
        fractional = {**cd.weights, next(iter(cd.weights)): 1.5}
        with pytest.raises(ValueError, match=r"weight 1\.5 is not an integer"):
            dataclasses.replace(cd, weights=fractional)
        for ineffective in ({(0, 1): 2.0}, {key: 2 * w for key, w in cd.weights.items()}):
            with pytest.raises(IneffectiveAction, match="common divisor 2"):
                dataclasses.replace(cd, weights=ineffective)


@pytest.mark.parametrize("name", list(_models()))
def test_weight_table_is_read_only(name):
    """A chart keeps a read-only copy of its table: assigning a weight raises,
    and editing the dict it was built from leaves the chart's table alone."""
    for cd in _models()[name]().charts:
        for key in cd.weights:
            with pytest.raises(TypeError):
                cd.weights[key] = 2.0
        table = dict(cd.weights)
        copy = dataclasses.replace(cd, weights=table)
        key = next(iter(table))
        table[key] = table[key] + 1.0
        assert dict(copy.weights) == dict(cd.weights) != table


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
