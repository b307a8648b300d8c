"""Blown-up ball: chart identities, transition gluing, center data."""

import numpy as np
import pytest

from hamflow import blowup, jets
from hamflow.basic import disc_d4
from hamflow.blowup import blowup_d4
from hamflow.chart import SmoothMap, sample_domain
from hamflow.errors import IneffectiveAction, SurfaceBlowupUnsupported
from hamflow.forms import coeff_residual, field_values, form_matrix, metric_gradient, metric_matrix
from hamflow.linalg import compatible_structure, nondegenerate
from hamflow.model import liouville_residual, moment_residual, self_check_points

from oracles import fd_hessian, pulled_back


@pytest.fixture(scope="module")
def mod():
    return blowup_d4(3, 1, 0.2)


def test_chart_identities(mod):
    for cd in mod.charts:
        pts = self_check_points(cd, n=48, seed=5)
        assert moment_residual(cd, jets.seed(pts, order=1)).max() < 1e-12
        assert liouville_residual(cd, jets.seed(pts, order=2)).max() < 1e-12


def test_metric_is_spd_and_compatible(mod):
    for cd in mod.charts:
        pts = self_check_points(cd, n=48, seed=6)
        jc = jets.seed(pts, order=2)
        G = metric_matrix(cd.metric, jc)
        assert np.abs(G - np.swapaxes(G, 1, 2)).max() < 1e-14
        assert np.linalg.eigvalsh(G).min() > 0.01
        Om = form_matrix(cd.omega.coefficients(jc), jc)
        ok, worst = nondegenerate(Om)
        assert ok and worst > 0.01
        J = compatible_structure(Om, G)
        X = field_values(cd.generator, jc)
        grad = field_values(metric_gradient(cd.metric, cd.hamiltonian, 4), jc)
        assert np.abs(X - np.einsum("nij,nj->ni", J, grad)).max() < 1e-12


def test_stored_alpha_is_omega_contraction(mod):
    # each core chart solves its Liouville field from the primitive lambda it
    # builds: the flat primitive pulled back through the blow-down, plus the
    # round primitive, minus the faded correction; so i_Y omega = lambda
    flat = disc_d4(mod.params["m"], mod.params["n"]).charts[0]
    eps2 = mod.params["size"] ** 2
    rim = mod.charts[2].chart
    for cd, (keep, scaled) in zip(mod.charts[:2], [((0, 1), (2, 3)), ((2, 3), (0, 1))]):
        down = SmoothMap(cd.chart, rim, blowup._blowdown(keep, scaled))
        pts = self_check_points(cd, n=32, seed=7)
        jc = jets.seed(pts, order=1)
        lam = pulled_back(down, flat.alpha().coefficients, jc)
        terms = [(1.0, blowup._round_primitive(eps2, scaled)), (-1.0, blowup._faded_primitive(eps2, keep, scaled))]
        for sign, term in terms:
            for idx, c in term(jc).items():
                lam[idx] = lam[idx] + c * sign if idx in lam else c * sign
        res = coeff_residual(cd.alpha().coefficients(jc), lam)
        assert np.abs(res).max() < 1e-12


def _overlap_points(rng, count=25):
    pts = []
    while len(pts) < count:
        cand = rng.uniform(-1.0, 1.0, 4)
        v2 = cand[2] ** 2 + cand[3] ** 2
        if 0.75 <= v2 <= 1.4 and (cand[0] ** 2 + cand[1] ** 2) * (1 + v2) <= 0.95:
            pts.append(cand)
    return np.array(pts)


def test_transition_glues_structures(mod):
    pts = _overlap_points(np.random.default_rng(7))
    jc = jets.seed(pts, order=2)
    inner, outer = mod.charts[:2]
    fwd = mod.transitions[0].map
    assert np.abs(coeff_residual(
        inner.omega.coefficients(jc), pulled_back(fwd, outer.omega.coefficients, jc)
    )).max() < 1e-12
    image = fwd.apply(pts)
    h_in = inner.hamiltonian(jets.seed(pts, order=0)).value
    h_out = outer.hamiltonian(jets.seed(image, order=0)).value
    assert np.abs(h_in - h_out).max() < 1e-12
    back = mod.transitions[1].map.apply(image)
    assert np.abs(back - pts).max() < 1e-10


def test_primitives_differ_by_angular_form(mod):
    # the 2-form carries positive area on the core sphere, so no global
    # primitive exists: the two chart primitives differ by exactly
    # size^2 times the angular 1-form of the second factor
    pts = _overlap_points(np.random.default_rng(9), count=16)
    jc = jets.seed(pts, order=1)
    inner, outer = mod.charts[:2]
    fwd = mod.transitions[0].map
    got = coeff_residual(
        inner.alpha().coefficients(jc),
        pulled_back(fwd, outer.alpha().coefficients, jc),
    )
    eps2 = mod.params["size"] ** 2
    v2 = pts[:, 2] ** 2 + pts[:, 3] ** 2
    expect = np.maximum(
        np.abs(eps2 * -pts[:, 3] / v2), np.abs(eps2 * pts[:, 2] / v2)
    )
    assert np.abs(got - expect).max() < 1e-12


def test_transition_intertwines_action(mod):
    pts = _overlap_points(np.random.default_rng(8), count=10)
    fwd = mod.transitions[0].map
    theta = 0.9
    a_in = mod.charts[0].action_map([theta], pts)[0][0]
    a_out = mod.charts[1].action_map([theta], fwd.apply(pts))[0][0]
    assert np.abs(fwd.apply(a_in) - a_out).max() < 1e-10


def test_center_fixed_points(mod):
    # pole values are size^2 times the respective weight, matching the
    # blown-down moment being flat near the boundary
    origin = np.zeros((1, 4))
    jc = jets.seed(origin, order=2)
    inner, outer = mod.charts[:2]
    h_in = inner.hamiltonian(jc)
    h_out = outer.hamiltonian(jc)
    assert np.abs(field_values(inner.generator, jc)).max() == 0.0
    assert np.abs(field_values(outer.generator, jc)).max() == 0.0
    assert abs(h_in.value[0] - 0.12) < 1e-15
    assert abs(h_out.value[0] - 0.04) < 1e-15
    assert np.allclose(h_in.hess[0], np.diag([3.0, 3.0, -0.16, -0.16]), atol=1e-12)
    assert np.allclose(h_out.hess[0], np.diag([0.16, 0.16, 1.0, 1.0]), atol=1e-12)


def test_hessian_matches_finite_differences(mod):
    cd = mod.charts[0]
    pt = np.array([0.21, -0.14, 0.33, 0.4])

    def f(x):
        return cd.hamiltonian(jets.seed(x[None, :], order=0)).value[0]

    jc = jets.seed(pt[None, :], order=2)
    assert np.abs(cd.hamiltonian(jc).hess[0] - fd_hessian(f, pt)).max() < 1e-5


def test_exceptional_sphere_pointwise_weight(mod):
    # points with u = 0 rotate only in the v-plane, with weight n - m
    pts = np.array([[0.0, 0.0, 0.5, -0.2]])
    theta = 2 * np.pi / abs(mod.params["n"] - mod.params["m"])
    moved, partial = mod.charts[0].action_map([theta, theta / 2], pts)[0]
    assert np.abs(moved - pts).max() < 1e-12
    assert np.abs(partial - pts).max() > 0.1


def test_boundary_function_positive_outside(mod):
    rng = np.random.default_rng(3)
    pts = sample_domain(mod.charts[2].chart, 64, rng)
    vals = mod.charts[2].chart.boundary(jets.seed(pts, order=0)).value
    assert vals.max() <= 0.0


def test_rim_agrees_with_core_exactly(mod):
    # on the collar overlap the faded correction has vanished, so the core
    # chart's 2-form and moment blow down to the flat ones with no residual
    rng = np.random.default_rng(12)
    pts = []
    while len(pts) < 30:
        cand = rng.uniform(-1.0, 1.0, 4)
        scale = (cand[0] ** 2 + cand[1] ** 2) * (1 + cand[2] ** 2 + cand[3] ** 2)
        if 0.875 <= scale <= 0.925 and cand[2] ** 2 + cand[3] ** 2 <= 1.4:
            pts.append(cand)
    pts = np.array(pts)
    jc = jets.seed(pts, order=2)
    inner, rim = mod.charts[0], mod.charts[2]
    to_rim = mod.transitions[2].map
    res = coeff_residual(
        inner.omega.coefficients(jc), pulled_back(to_rim, rim.omega.coefficients, jc)
    )
    assert np.abs(res).max() < 1e-14
    image = to_rim.apply(pts)
    h_core = inner.hamiltonian(jets.seed(pts, order=0)).value
    h_rim = rim.hamiltonian(jets.seed(image, order=0)).value
    assert np.abs(h_core - h_rim).max() < 1e-14


@pytest.mark.parametrize("bad", [(0, 1), (1, 0), (0, 0)])
def test_zero_weight_rejected(bad):
    with pytest.raises(SurfaceBlowupUnsupported):
        blowup_d4(*bad)


def test_common_divisor_rejected():
    with pytest.raises(IneffectiveAction):
        blowup_d4(2, 4)


def test_bad_size_rejected():
    with pytest.raises(ValueError):
        blowup_d4(1, -1, size=0.9)
