"""Linear models: frozen values, invariance, and effectiveness guards."""

import numpy as np
import pytest

from hamflow import forms, jets
from hamflow.basic import cotangent_t2, disc_d4, s1_d3
from hamflow.errors import IneffectiveAction
from hamflow.model import liouville_residual, moment_residual, self_check_points


def test_disc_weighted_energy_values():
    p = np.array([[0.3, -0.2, 0.5, 0.1]])
    jc = jets.seed(p, order=0)
    assert disc_d4(1, 1).charts[0].hamiltonian(jc).value[0] == pytest.approx(0.195, abs=1e-15)
    assert disc_d4(2, 3).charts[0].hamiltonian(jc).value[0] == pytest.approx(0.52, abs=1e-15)
    assert disc_d4(1, -1).charts[0].hamiltonian(jc).value[0] == pytest.approx(-0.065, abs=1e-15)


def test_disc_omega_matrix_is_standard():
    cd = disc_d4(1, 1).charts[0]
    jc = jets.seed(np.zeros((1, 4)), order=0)
    mats = forms.form_matrix(cd.omega.coefficients(jc), jc)
    expected = np.array(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
    )
    assert np.array_equal(mats[0], expected)


@pytest.mark.parametrize(
    "m,n,eigs",
    [(1, 1, [1, 1, 1, 1]), (1, -1, [-1, -1, 1, 1]), (-1, -2, [-2, -2, -1, -1])],
)
def test_disc_origin_hessian(m, n, eigs):
    cd = disc_d4(m, n).charts[0]
    h = cd.hamiltonian(jets.seed(np.zeros((1, 4)), order=2))
    got = np.sort(np.linalg.eigvalsh(h.hess[0]))
    assert np.allclose(got, np.sort(np.array(eigs, dtype=float)), atol=1e-14)


def test_tube_energy_value():
    cd = s1_d3(2, 1).charts[0]
    jc = jets.seed(np.array([[1.0, 0.3, -0.2, 0.5]]), order=0)
    assert cd.hamiltonian(jc).value[0] == pytest.approx(1.065, abs=1e-15)


def test_torus_cotangent_energy_is_linear_in_momenta():
    cd = cotangent_t2(1, 0).charts[0]
    jc = jets.seed(np.array([[0.4, 5.0, 0.25, -0.6]]), order=0)
    assert cd.hamiltonian(jc).value[0] == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize(
    "build",
    [lambda: disc_d4(1, -1), lambda: s1_d3(2, 1), lambda: cotangent_t2(1, 2)],
)
def test_structural_residuals_vanish(build):
    model = build()
    cd = model.charts[0]
    pts = self_check_points(cd, n=64, seed=3)
    assert moment_residual(cd, jets.seed(pts, order=1)).max() < 1e-12
    assert liouville_residual(cd, jets.seed(pts, order=2)).max() < 1e-12


@pytest.mark.parametrize(
    "build",
    [lambda: disc_d4(2, 3), lambda: s1_d3(1, 0), lambda: cotangent_t2(1, 1)],
)
def test_action_preserves_omega_and_energy(build):
    model = build()
    cd = model.charts[0]
    pts = self_check_points(cd, n=40, seed=5)
    jc = jets.seed(pts, order=0)
    images, jacs = cd.action_map([0.7, 2.0, -1.3], pts)
    moved = jets.seed(images.reshape(-1, cd.chart.dim), order=0)
    rows = images.shape[:2]
    omega1 = {key: c.value.reshape(rows) for key, c in cd.omega.coefficients(moved).items()}
    pulled = forms.pullback_values(omega1, jacs)
    assert forms.coeff_residual(pulled, cd.omega.coefficients(jc)).max() < 1e-12
    dh = cd.hamiltonian(moved).value.reshape(rows) - cd.hamiltonian(jc).value
    assert np.max(np.abs(dh)) < 1e-12


def test_action_at_full_turn_is_identity():
    cd = disc_d4(2, -3).charts[0]
    pts = self_check_points(cd, n=16, seed=7)
    moved = cd.action_map([2 * np.pi], pts)[0][0]
    assert np.max(np.abs(moved - pts)) < 1e-12


@pytest.mark.parametrize(
    "build",
    [
        lambda: disc_d4(0, 0),
        lambda: disc_d4(2, 4),
        lambda: s1_d3(2, 0),
        lambda: s1_d3(0, 3),
        lambda: cotangent_t2(2, 2),
    ],
)
def test_ineffective_weight_pairs_are_rejected(build):
    with pytest.raises(IneffectiveAction):
        build()


def test_tube_boundary_zero_level_of_energy():
    # On the boundary sphere the energy 2h + (1 - h^2)/2 vanishes at
    # h = 2 - sqrt(5), the root inside the interval.
    level = 2 - np.sqrt(5)
    cd = s1_d3(2, 1).charts[0]
    x = np.sqrt(1 - level**2)
    jc = jets.seed(np.array([[0.0, x, 0.0, level]]), order=0)
    assert abs(cd.hamiltonian(jc).value[0]) < 1e-15
    assert abs(cd.chart.boundary(jc).value[0]) < 1e-15
