"""Planar-surface models: potential analysis, topology guards, ramp guards."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamflow import jets
from hamflow.errors import BadRamp, BadStructureConstant
from hamflow.jets import Jet
from hamflow.model import liouville_residual, moment_residual, self_check_points
from hamflow import planar
from hamflow.planar import PitPotential, disc_bundle_over_surface, free_action_planar
from oracles import grid_components


def _golden_min(fn, lo, hi, iters=200):
    phi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(iters):
        if fn(c) < fn(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    m = (a + b) / 2
    return fn(m)


def test_single_pit_minimum_matches_radial_oracle():
    # One hole at the origin: the potential is radial, so golden-section
    # search on r gives an independent value for the minimum.
    oracle = _golden_min(lambda r: 0.05 * r * r + np.log(r) ** 2, 0.5, 1.5)
    pot = PitPotential(((0.0, 0.0),), 1.0)
    assert pot.minimum == pytest.approx(oracle, abs=1e-10)
    assert pot.minimum == pytest.approx(0.047721114683, abs=1e-9)


def test_two_pit_minimum_frozen():
    pot = PitPotential(((-0.55, 0.0), (0.55, 0.0)), 1.0)
    assert pot.minimum == pytest.approx(0.033683633104, abs=1e-9)


def test_far_holes_break_topology():
    with pytest.raises(BadStructureConstant):
        PitPotential(((-3.0, 0.0), (3.0, 0.0)), 1.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_free_action_residuals_and_level_circles(k):
    model = free_action_planar(k)
    cd = model.charts[0]
    pts = self_check_points(cd, n=60, seed=17)
    assert moment_residual(cd, jets.seed(pts, order=1)).max() < 1e-12
    assert liouville_residual(cd, jets.seed(pts, order=2)).max() < 1e-12
    assert model.meta["boundary_circles"] == k


def test_zero_height_slice_of_boundary_is_the_level_set():
    model = free_action_planar(2)
    cd = model.charts[0]
    # on s = 0 the boundary function reduces to the rescaled potential at 1/2
    pts = np.array([[0.3, 0.0, 1.2, 0.4], [2.0, 0.0, -0.8, 0.9]])
    jc = jets.seed(pts, order=0)
    f = cd.chart.boundary(jc).value
    from hamflow.planar import PitPotential as PP

    pot = PP(((0.0, 0.0),), 1.0)
    jxy = jets.seed(pts[:, 2:], order=0)
    f2 = pot.value(jxy[0], jxy[1]).value
    assert np.allclose(f, f2 - 0.5, atol=1e-14)


def test_bundle_residuals_and_seam():
    model = disc_bundle_over_surface()
    cd = model.charts[0]
    pts = self_check_points(cd, n=60, seed=19)
    assert moment_residual(cd, jets.seed(pts, order=1)).max() < 1e-12
    assert liouville_residual(cd, jets.seed(pts, order=2)).max() < 1e-12
    assert model.meta["seam"] == pytest.approx(0.4)


def test_bundle_boundary_function_is_c2_at_the_seam():
    model = disc_bundle_over_surface()
    cd = model.charts[0]
    # straddle the ramp seam along x at w = 0.9: the boundary jet must agree
    # with central finite differences across the junction
    w = 0.9

    def f_of_x(xs):
        pts = np.column_stack([xs, np.zeros_like(xs), np.full_like(xs, w), np.zeros_like(xs)])
        return cd.chart.boundary(jets.seed(pts, order=0)).value

    # find an x where the potential crosses the seam value 0.4
    from hamflow.planar import PitPotential as PP

    pot = PP((), 1.0)
    x_seam = np.sqrt(0.4 * 2 * 1.0 / 0.05)  # rescaled 0.05 x^2 / 2 = 0.4
    h = 1e-4
    xs = np.array([x_seam - h, x_seam, x_seam + h])
    vals = f_of_x(xs)
    jc = jets.seed(np.array([[x_seam, 0.0, w, 0.0]]), order=2)
    bj = cd.chart.boundary(jc)
    fd1 = (vals[2] - vals[0]) / (2 * h)
    fd2 = (vals[2] - 2 * vals[1] + vals[0]) / h**2
    assert bj.grad[0, 0] == pytest.approx(fd1, abs=1e-5)
    assert bj.hess[0, 0, 0] == pytest.approx(fd2, abs=1e-2)


def test_custom_ramp_must_be_flat_and_reach_one():
    def bad_ramp(x: Jet) -> Jet:
        return x * 1.0  # linear: not C^2-flat at 0

    with pytest.raises(BadRamp):
        disc_bundle_over_surface(ramp=bad_ramp)

    def weak_ramp(x: Jet) -> Jet:
        cube = x * x * x * 0.5  # flat but never reaches 1
        mask = x.value > 0.0
        v = np.where(mask, cube.value, 0.0)
        g = None if cube.grad is None else np.where(mask[:, None], cube.grad, 0.0)
        h = None if cube.hess is None else np.where(mask[:, None, None], cube.hess, 0.0)
        return Jet(v, g, h)

    with pytest.raises(BadRamp):
        disc_bundle_over_surface(ramp=weak_ramp)


def test_hole_count_mismatch_rejected():
    with pytest.raises(ValueError):
        free_action_planar(3, holes=((0.0, 0.0),))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 40),
    ny=st.integers(1, 40),
    density=st.floats(0.0, 1.0),
)
@example(seed=0, nx=1, ny=1, density=1.0)
@example(seed=0, nx=241, ny=241, density=0.55)
def test_grid_components_match_flood_fill(seed, nx, ny, density):
    mask = np.random.default_rng(seed).random((nx, ny)) < density
    assert planar._count_components(mask) == grid_components(mask)


@pytest.mark.parametrize(
    "rows, count",
    [
        (["#.#", ".#.", "#.#"], 5),  # cells touching only at corners stay apart
        (["#..", ".#.", "..#"], 3),
        (["...", "...", "..."], 0),
        (["#"], 1),
        (["."], 0),
        (["###", "#.#", "###"], 1),
        (["#.#.#", "#####"], 1),
        (["##..##", "..##.."], 3),
    ],
)
def test_grid_components_small_masks(rows, count):
    mask = np.array([[c == "#" for c in row] for row in rows])
    assert planar._count_components(mask) == grid_components(mask) == count
    assert planar._count_components(~mask) == grid_components(~mask)
