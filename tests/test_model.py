"""The shared identity residuals and the builders' moment self-check: the
self-check passes on every catalog chart and raises MomentMapMismatch on
negated weights or a partly non-finite moment map; a 2-form that needs a
second jet order raises JetOrderError at order 1 instead of giving a
residual.  Every chart declares its action by one weight table, which it
refuses when non-integer or ineffective and keeps as a read-only copy; the
action read off the table matches the jet action of :mod:`oracles` bitwise,
its generator is the derivative of its action at angle 0, and its contact
form alpha = i_Y omega lists its terms in index order.  A metric declared by
its upper-triangle entries comes back as the full mirrored jet matrix, and
its values read is that matrix's values bitwise."""

import dataclasses

import numpy as np
import pytest

from hamflow import forms, jets, registry, verifier
from hamflow.chart import Chart, sample_boundary, sample_domain
from hamflow.errors import IneffectiveAction, JetOrderError, MomentMapMismatch
from hamflow.model import ChartData, assert_moment, moment_residual, self_check_points, symmetric_metric
from oracles import jet_action_map


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
        omega=forms.KForm(lambda jc: forms.d_coeffs(primitive(jc), 2)),
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
    generator cannot be replaced on its own, and a table with a non-integer
    weight or a common divisor is refused."""
    for cd in _models()[name]().charts:
        with pytest.raises(TypeError):
            dataclasses.replace(cd, generator=cd.generator)
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
        (ahead, behind, first, both, full_turn), _ = cd.action_map([h, -h, 1.9, 2.6, 2 * np.pi], pts)
        slope = chart.displacement(behind, ahead) / (2 * h)
        gen = forms.field_values(cd.generator, jets.seed(pts, order=0))
        assert np.max(np.abs(slope - gen)) < 1e-8, chart.name
        composed = cd.action_map([0.7], first)[0][0]
        assert np.max(np.abs(chart.displacement(both, composed))) < 1e-12, chart.name
        assert np.max(np.abs(chart.displacement(pts, full_turn))) < 1e-12, chart.name


# the invariance angles, the detector's 128 and the certificate's 24 orbit
# angles, and three others: the chart digests' 0.7, a negative turn and 1/phi
ACTION_ANGLES = np.concatenate([
    2 * np.pi * np.arange(1, verifier.INVARIANCE_ANGLES + 1) / verifier.INVARIANCE_ANGLES,
    np.linspace(0.0, 2 * np.pi, 128, endpoint=False),
    np.linspace(0.0, 2 * np.pi, 24, endpoint=False),
    [0.7, -1.3, 2 * np.pi * 0.6180339887498949],
])


@pytest.mark.parametrize("name", list(_models()))
def test_action_map_matches_the_jet_action(name):
    """The action read off the weight table gives, at 64 samples of every
    chart and every angle of ACTION_ANGLES, bitwise the unwrapped image
    values of the jet action of :func:`oracles.jet_action` and exactly its
    Jacobian at every sample."""
    for ci, cd in enumerate(_models()[name]().charts):
        pts = sample_domain(cd.chart, 64, np.random.default_rng([17, ci]))
        images, jacs = cd.action_map(ACTION_ANGLES, pts)
        k, d = ACTION_ANGLES.size, cd.chart.dim
        assert (images.shape, jacs.shape) == ((k, *pts.shape), (k, d, d)), cd.chart.name
        for theta, image, jac in zip(ACTION_ANGLES, images, jacs):
            ref = jet_action_map(cd, float(theta))
            values = np.stack([j.value for j in ref.forward(jets.seed(pts, order=0))], axis=1)
            assert np.array_equal(image.view(np.uint64), values.view(np.uint64)), (cd.chart.name, theta)
            ref_jac = ref.jacobian(pts)
            assert np.array_equal(ref_jac, np.broadcast_to(jac, ref_jac.shape)), (cd.chart.name, theta)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_symmetric_metric_mirrors_entries_and_lifts_floats(order):
    jc = jets.seed(np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6]]), order=order)
    metric = symmetric_metric(lambda jc: {(0, 0): 2.0, (0, 2): jc[1] * 3.0, (1, 1): 2.0, (2, 2): jc[0]})
    g = metric(jc)
    # the values read: floats as they are, jets' values, +0.0 where unlisted
    expect = np.zeros((2, 3, 3))
    expect[:, 0, 0] = expect[:, 1, 1] = 2.0
    expect[:, 0, 2] = expect[:, 2, 0] = jc[1].value * 3.0
    expect[:, 2, 2] = jc[0].value
    assert metric.values(jc).tobytes() == expect.tobytes()
    assert len(g) == 3 and all(len(row) == 3 for row in g)
    # entries are mirrored, as the same jet
    assert g[2][0] is g[0][2]
    np.testing.assert_array_equal(g[0][2].value, jc[1].value * 3.0)
    assert g[2][2] is jc[0]
    # unlisted entries are zero jets of the batch's order
    for i, j in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        assert g[i][j].order == order
        np.testing.assert_array_equal(g[i][j].value, [0.0, 0.0])
        for part in (g[i][j].grad, g[i][j].hess)[:order]:
            assert not part.any()
    # a float becomes a constant jet of the batch's order, shared by equal floats
    assert g[0][0] is g[1][1] and g[0][0].order == order
    np.testing.assert_array_equal(g[0][0].value, [2.0, 2.0])
    for part in (g[0][0].grad, g[0][0].hess)[:order]:
        assert part.shape[0] == 2 and not part.any()


# the blow-up core charts' Kahler pairing is computed from omega as a full matrix
CORE_CHARTS = {"blowup_d4(1,-1,0.2)": ("inner", "outer")}


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", list(_models()))
def test_metric_values_read_is_the_jet_matrix_value(name, order):
    """``forms.metric_matrix`` reads a declared metric's values without jets, bitwise the
    jet matrix's values, the sign of a zero included."""
    for ci, cd in enumerate(_models()[name]().charts):
        if cd.metric is None:
            continue
        core = cd.chart.name in CORE_CHARTS.get(name, ())
        assert hasattr(cd.metric, "values") != core, cd.chart.name
        jc = jets.seed(sample_domain(cd.chart, 64, np.random.default_rng([13, ci])), order=order)
        if core and order == 0:  # the pairing takes partials of omega
            with pytest.raises(JetOrderError):
                forms.metric_matrix(cd.metric, jc)
            continue
        full = np.stack([np.stack([e.value for e in row], axis=-1) for row in cd.metric(jc)], axis=-2)
        assert forms.metric_matrix(cd.metric, jc).tobytes() == full.tobytes(), cd.chart.name
        if core:  # its mirrored entries differ in bits, so it is not read off one triangle
            assert full.tobytes() != full.transpose(0, 2, 1).tobytes(), cd.chart.name


def test_boundary_clouds_are_direct_draws_of_the_charts_whose_boundary_rays_find():
    """A chart with no boundary, and one whose zero level no ray reaches, are
    left out; every other cloud is bitwise ``sample_boundary`` on the stream
    ``[seed, stream, chart index]`` through the chart's ``boundary_accept``."""
    glued = registry.build("attach_2handle(s1_d3(1,0))")
    ball = registry.build("disc_d4(1,1)").charts[0]
    unbounded = dataclasses.replace(ball, chart=dataclasses.replace(ball.chart, boundary=None))
    # the zero level r = 10 lies outside the unit ball the rays must stay in
    far = dataclasses.replace(ball.chart, boundary=lambda jc: sum(c.sq() for c in jc) - 100.0)
    model = dataclasses.replace(glued, charts=[unbounded, *glued.charts, dataclasses.replace(ball, chart=far)])
    clouds = list(model.boundary_clouds(120, 7, 41))
    assert [ci for ci, _, _ in clouds] == [1, 2]
    for ci, cd, pts in clouds:
        assert cd is model.charts[ci]
        want = sample_boundary(cd.chart, 120, np.random.default_rng([7, 41, ci]), accept=cd.boundary_accept)
        assert pts.tobytes() == want.tobytes(), cd.chart.name
