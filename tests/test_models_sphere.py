"""Sphere cotangent model: chart agreement and frozen structure."""

import numpy as np
import pytest

from hamflow import forms, jets
from hamflow.chart import sample_domain
from hamflow.model import liouville_residual, moment_residual, self_check_points
from hamflow.sphere import cotangent_s2

from oracles import pulled_back


@pytest.fixture(scope="module")
def model():
    return cotangent_s2()


def test_residuals_vanish_in_every_chart(model):
    for cd in model.charts:
        pts = self_check_points(cd, n=48, seed=9)
        assert moment_residual(cd, jets.seed(pts, order=1)).max() < 1e-11
        assert liouville_residual(cd, jets.seed(pts, order=2)).max() < 1e-11


def test_cap_origin_hessian_is_a_saddle(model):
    cd = model.charts[1]
    h = cd.hamiltonian(jets.seed(np.zeros((1, 4)), order=2))
    assert np.allclose(h.hess[0], np.array(
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float))
    assert np.allclose(np.sort(np.linalg.eigvalsh(h.hess[0])), [-1, -1, 1, 1], atol=1e-14)


def _overlap_points(model, side, n=60):
    eq = model.charts[0].chart
    rng = np.random.default_rng([21, 4])
    pts = sample_domain(eq, 600, rng)
    mask = pts[:, 1] * side >= 0.56
    return pts[mask][:n]


@pytest.mark.parametrize("cap_idx,side", [(1, +1.0), (2, -1.0)])
def test_transition_preserves_energy_exactly(model, cap_idx, side):
    pts = _overlap_points(model, side)
    assert len(pts) > 10
    tr = next(t for t in model.transitions if t.src == 0 and t.dst == cap_idx)
    mapped = tr.map.apply(pts)
    h_eq = model.charts[0].hamiltonian(jets.seed(pts, order=0)).value
    h_cap = model.charts[cap_idx].hamiltonian(jets.seed(mapped, order=0)).value
    assert np.max(np.abs(h_eq - h_cap)) < 1e-12


@pytest.mark.parametrize("cap_idx,side", [(1, +1.0), (2, -1.0)])
def test_transition_pulls_back_omega_and_alpha(model, cap_idx, side):
    pts = _overlap_points(model, side)
    jc = jets.seed(pts, order=2)
    tr = next(t for t in model.transitions if t.src == 0 and t.dst == cap_idx)
    cap = model.charts[cap_idx]
    eq = model.charts[0]
    pulled_omega = pulled_back(tr.map, cap.omega.coefficients, jc)
    assert forms.coeff_residual(pulled_omega, eq.omega.coefficients(jc)).max() < 1e-11
    pulled_alpha = pulled_back(tr.map, cap.alpha().coefficients, jc)
    assert forms.coeff_residual(pulled_alpha, eq.alpha().coefficients(jc)).max() < 1e-11


@pytest.mark.parametrize("cap_idx,side", [(1, +1.0), (2, -1.0)])
def test_transition_roundtrip_and_boundary_agreement(model, cap_idx, side):
    pts = _overlap_points(model, side)
    out = next(t for t in model.transitions if t.src == 0 and t.dst == cap_idx)
    back = next(t for t in model.transitions if t.src == cap_idx and t.dst == 0)
    mapped = out.map.apply(pts)
    again = back.map.apply(mapped)
    assert np.max(np.abs(model.charts[0].chart.displacement(again, pts))) < 1e-10
    f_eq = model.charts[0].chart.boundary(jets.seed(pts, order=0)).value
    f_cap = model.charts[cap_idx].chart.boundary(jets.seed(mapped, order=0)).value
    assert np.max(np.abs(f_eq - f_cap)) < 1e-11


def test_cap_metric_blocks_are_mutually_inverse(model):
    cd = model.charts[1]
    pts = self_check_points(cd, n=30, seed=13)
    g = forms.metric_matrix(cd.metric, jets.seed(pts, order=0))
    base, fiber = g[:, :2, :2], g[:, 2:, 2:]
    prod = np.einsum("nij,njk->nik", base, fiber)
    assert np.max(np.abs(prod - np.eye(2))) < 1e-12
    assert np.max(np.abs(g[:, :2, 2:])) == 0.0
