"""Quotient disc bundle and its invariant total space: exact identities."""

import numpy as np
import pytest

from hamflow import forms, jets
from hamflow.chart import sample_domain
from hamflow.linalg import compatible_structure
from hamflow.model import liouville_residual, moment_residual, self_check_points
from hamflow.prequant import prequantization_s2, projections

from oracles import pulled_back


@pytest.fixture(scope="module")
def model():
    return prequantization_s2()


def _off_axis_points(cd, n=60, seed=23):
    pts = self_check_points(cd, n=240, seed=seed)
    r2 = pts[:, 2] ** 2 + pts[:, 3] ** 2
    return pts[r2 >= 0.04][:n]


@pytest.mark.parametrize("idx", [0, 1, 2])
def test_quotient_charts_carry_exact_structure(model, idx):
    cd = model.charts[idx]
    pts = _off_axis_points(cd)
    assert len(pts) >= 30
    assert moment_residual(cd, jets.seed(pts, order=1)).max() < 1e-12
    assert liouville_residual(cd, jets.seed(pts, order=2)).max() < 1e-12


@pytest.mark.parametrize("idx", [0, 1, 2])
def test_quotient_metric_is_compatible(model, idx):
    cd = model.charts[idx]
    pts = _off_axis_points(cd)
    jc = jets.seed(pts, order=2)
    om = forms.form_matrix(cd.omega.coefficients(jc), jc)
    gm = forms.metric_matrix(cd.metric, jc)
    j = compatible_structure(om, gm)
    assert np.max(np.abs(np.einsum("nij,njk->nik", j, j) + np.eye(4))) < 1e-12
    x = forms.field_values(cd.generator, jc)
    jgh = np.einsum("nij,nj->ni", j, forms.field_values(cd.gradient_field(), jc))
    assert np.max(np.abs(x - jgh)) < 1e-12


@pytest.mark.parametrize("idx", [3, 4])
def test_total_charts_are_closed_with_exact_kernel(model, idx):
    cd = model.charts[idx]
    pts = self_check_points(cd, n=60, seed=29)
    jc = jets.seed(pts, order=2)
    dom = forms.d_coeffs(cd.omega.coefficients(jc), cd.chart.dim)
    assert all(np.max(np.abs(c.value)) < 1e-14 for c in dom.values())
    ik = forms.interior_coeffs(cd.kernel(jc), cd.omega.coefficients(jc))
    assert all(np.max(np.abs(c.value)) < 1e-14 for c in ik.values())
    assert liouville_residual(cd, jets.seed(pts, order=2)).max() < 1e-12


def test_every_transition_matches_omega_and_energy(model):
    rng_seed = 5
    for t in model.transitions:
        src, dst = model.charts[t.src], model.charts[t.dst]
        pts = sample_domain(src.chart, 800, np.random.default_rng(rng_seed))
        pts = pts[t.valid(pts)][:50]
        assert len(pts) > 10
        jc = jets.seed(pts, order=2)
        pb = pulled_back(t.map, dst.omega.coefficients, jc)
        assert forms.coeff_residual(pb, src.omega.coefficients(jc)).max() < 1e-12
        mapped = t.map.apply(pts)
        h_src = src.hamiltonian(jets.seed(pts, order=0)).value
        h_dst = dst.hamiltonian(jets.seed(mapped, order=0)).value
        assert np.max(np.abs(h_src - h_dst)) < 1e-12


def test_projection_intertwines_the_presentations(model):
    for ti, qi, pmap in projections(model):
        total, band = model.charts[ti], model.charts[qi]
        pts = self_check_points(total, n=50, seed=31)
        jc = jets.seed(pts, order=2)
        pb = pulled_back(pmap, band.omega.coefficients, jc)
        assert forms.coeff_residual(pb, total.omega.coefficients(jc)).max() < 1e-12
        # energy agrees and the projection intertwines the actions
        mapped = pmap.apply(pts)
        h_t = total.hamiltonian(jets.seed(pts, order=0)).value
        h_q = band.hamiltonian(jets.seed(mapped, order=0)).value
        assert np.max(np.abs(h_t - h_q)) < 1e-13
        theta = 0.9
        a = pmap.apply(total.action_map([theta], pts)[0][0])
        b = band.action_map([theta], pmap.apply(pts))[0][0]
        assert np.max(np.abs(band.chart.displacement(a, b))) < 1e-12


def test_zero_section_is_critical_with_transverse_unit_hessian(model):
    cd = model.charts[0]
    pts = np.array([[0.4, 0.1, 0.0, 0.0], [3.0, -0.5, 0.0, 0.0]])
    jc = jets.seed(pts, order=2)
    x = forms.field_values(cd.generator, jc)
    assert np.max(np.abs(x)) == 0.0
    h = cd.hamiltonian(jc)
    assert np.allclose(h.hess, np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-15)
    # the 2-form restricted to the null directions does not vanish
    om = forms.form_matrix(cd.omega.coefficients(jc), jc)
    assert np.all(np.abs(om[:, 0, 1]) > 0.2)
