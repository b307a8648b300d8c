"""Handle blocks, face identification, and boundary surgery."""

import hashlib
import warnings

import numpy as np
import pytest

from hamflow import handles, jets, registry
from hamflow.basic import cotangent_t2, disc_d4, s1_d3
from hamflow.chart import sample_domain
from hamflow.errors import CollarTooDeep, IneffectiveAction, NotLegendrian, UnsupportedBase
from hamflow.forms import coeff_residual, field_values, pullback
from hamflow.model import liouville_residual, moment_residual, self_check_points
from oracles import one_handle_flow, rk4_endpoint


def test_block_identities():
    for model in (handles.weinstein_2handle(), handles.weinstein_1handle(1)):
        cd = model.charts[0]
        pts = self_check_points(cd, n=40, seed=3)
        assert moment_residual(cd, jets.seed(pts, order=1)).max() < 1e-13
        assert liouville_residual(cd, jets.seed(pts, order=2)).max() < 1e-13


def test_saddle_hessian_spectrum():
    cd = handles.weinstein_2handle().charts[0]
    jc = jets.seed(np.zeros((1, 4)), order=2)
    hess = cd.hamiltonian(jc).hess[0]
    expect = np.zeros((4, 4))
    expect[0, 3] = expect[3, 0] = -1.0
    expect[1, 2] = expect[2, 1] = 1.0
    assert np.array_equal(hess, expect)
    assert np.allclose(np.linalg.eigvalsh(hess), [-1, -1, 1, 1])


def test_one_handle_critical_surface():
    cd = handles.weinstein_1handle(1).charts[0]
    pts = np.array([[0.0, 0.0, 0.3, -0.7], [0.0, 0.0, -0.5, 0.2]])
    jc = jets.seed(pts, order=2)
    assert np.abs(field_values(cd.generator, jc)).max() == 0.0
    hess = cd.hamiltonian(jc).hess
    assert np.allclose(hess, np.diag([1.0, 1.0, 0.0, 0.0]))


def test_one_handle_weight_guard():
    with pytest.raises(IneffectiveAction):
        handles.weinstein_1handle(2)
    with pytest.raises(IneffectiveAction):
        handles.weinstein_1handle(0)


def test_one_handle_closed_form_flow():
    cd = handles.weinstein_1handle(1).charts[0]
    start = np.array([0.3, -0.2, 0.4, 0.5])
    end = rk4_endpoint(lambda p: field_values(cd.liouville, jets.seed(p[None, :], order=1))[0], start, 0.3, 300)
    assert np.abs(end - one_handle_flow(start, 0.3)).max() < 1e-12


def test_flare_profile_smooth_and_monotone():
    us = np.linspace(0.0, 1.0, 201)
    vals = np.array([handles.flare_profile_value(u) for u in us])
    assert vals[0] == handles.FLARE_BASE
    assert np.diff(vals).min() >= 0.0
    assert abs(vals[-1] - (handles.FLARE_BASE + handles.FLARE_GAIN)) < 1e-15
    jc = jets.seed(np.linspace(0.3, 0.7, 41)[:, None], order=2)
    jet = handles.flare_profile(jc[0])
    forward = np.gradient(jet.value, np.linspace(0.3, 0.7, 41))
    assert np.abs(forward[5:-5] - jet.grad[5:-5, 0]).max() < 1e-3


def test_face_identification_exact():
    phi = handles.attaching_map()
    emb = handles.face_embedding()
    rng = np.random.default_rng(0)
    pts = np.column_stack(
        [rng.uniform(0, 2 * np.pi, 30), rng.uniform(-0.5, 0.5, (30, 2))]
    )
    jc = jets.seed(pts, order=2)
    lam = handles._saddle_chart_data(1.0, 1.0).boundary_alpha
    res = coeff_residual(
        pullback(phi, handles.contact_form_standard()).coefficients(jc),
        pullback(emb, lam).coefficients(jc),
    )
    assert np.abs(res).max() < 1e-12


def test_attaching_map_roundtrip():
    phi = handles.attaching_map()
    rng = np.random.default_rng(1)
    pts = np.column_stack(
        [rng.uniform(0, 2 * np.pi, 20), rng.uniform(-0.5, 0.5, (20, 2))]
    )
    back = phi.apply(pts)
    jc = jets.seed(back, order=0)
    again = np.stack([j.value for j in phi.inverse(jc)], axis=1)
    assert np.abs(again - pts).max() < 1e-12


@pytest.mark.parametrize("build", [lambda: s1_d3(1, 0), lambda: disc_d4(1, -1)])
def test_neighborhood_contact_identity(build):
    base = build()
    nb = handles.standard_neighborhood(base)
    rng = np.random.default_rng(2)
    pts = np.column_stack(
        [rng.uniform(0, 2 * np.pi, 30), rng.uniform(-0.3, 0.3, (30, 2))]
    )
    jc = jets.seed(pts, order=2)
    res = coeff_residual(
        pullback(nb.embed, base.charts[0].boundary_alpha).coefficients(jc),
        handles.contact_form_standard().coefficients(jc),
    )
    assert np.abs(res).max() < 1e-12
    img = nb.embed.apply(pts)
    T, X, Y, logE = nb.tube_coords(img)
    dT = np.mod(T - pts[:, 0] + np.pi, 2 * np.pi) - np.pi
    assert np.abs(dT).max() < 1e-12
    assert np.abs(X - pts[:, 1]).max() < 1e-12
    assert np.abs(Y - pts[:, 2]).max() < 1e-12
    assert np.abs(logE).max() < 1e-12


def _handle_overlap_points(rng, count=25):
    pts = []
    while len(pts) < count:
        c = rng.uniform(-1, 1, 4)
        x2 = c[0] ** 2 + c[1] ** 2
        y2 = c[2] ** 2 + c[3] ** 2
        cap = 0.3025 * handles.flare_profile_value(x2)
        if np.exp(-0.1) + 0.003 < x2 < 0.997 and y2 < 0.9 * cap:
            pts.append(c)
    return np.array(pts)


@pytest.mark.parametrize("build", [lambda: s1_d3(1, 0), lambda: disc_d4(1, -1)])
def test_surgery_glues_exactly(build):
    glued = handles.attach_2handle(build())
    bcd, hcd = glued.charts
    pts = _handle_overlap_points(np.random.default_rng(4))
    jc = jets.seed(pts, order=2)
    to_base = glued.transitions[0]
    img = to_base.map.apply(pts)
    h_handle = hcd.hamiltonian(jets.seed(pts, order=0)).value
    h_base = bcd.hamiltonian(jets.seed(img, order=0)).value
    assert np.abs(h_handle - h_base).max() < 1e-9
    lam = coeff_residual(
        pullback(to_base.map, bcd.boundary_alpha).coefficients(jc),
        hcd.boundary_alpha.coefficients(jc),
    )
    assert np.abs(lam).max() < 1e-10
    om = coeff_residual(
        pullback(to_base.map, bcd.omega).coefficients(jc),
        hcd.omega.coefficients(jc),
    )
    assert np.abs(om).max() < 1e-10
    back = glued.transitions[1].map.apply(img)
    assert np.abs(back - pts).max() < 1e-10


def test_surgery_equivariance():
    glued = handles.attach_2handle(s1_d3(1, 0))
    bcd, hcd = glued.charts
    pts = _handle_overlap_points(np.random.default_rng(5), count=10)
    to_base = glued.transitions[0]
    theta = 0.8
    moved_then_mapped = to_base.map.apply(hcd.action_map(theta).apply(pts))
    mapped_then_moved = bcd.action_map(theta).apply(to_base.map.apply(pts))
    assert np.abs(moved_then_mapped - mapped_then_moved).max() < 1e-12


def test_surgery_new_critical_point():
    glued = handles.attach_2handle(s1_d3(1, 0), eps=0.05)
    hcd = glued.charts[1]
    jc = jets.seed(np.zeros((1, 4)), order=2)
    assert np.abs(field_values(hcd.generator, jc)).max() == 0.0
    hess = hcd.hamiltonian(jc).hess[0]
    eigs = np.linalg.eigvalsh(hess)
    s = np.exp(-0.05)
    assert np.allclose(eigs, [-s, -s, s, s], atol=1e-14)


def test_surgery_corner_lies_on_patch_rim():
    base = s1_d3(1, 0)
    glued = handles.attach_2handle(base)
    nb = handles.standard_neighborhood(base)
    rx = np.exp(-0.05)
    yr = 0.55 * np.sqrt(handles.flare_profile_value(rx * rx))
    corner = []
    for ang in np.linspace(0, 2 * np.pi, 9)[:-1]:
        for yang in np.linspace(0, 2 * np.pi, 5)[:-1]:
            corner.append(
                [rx * np.cos(ang), rx * np.sin(ang), yr * np.cos(yang), yr * np.sin(yang)]
            )
    corner = np.array(corner)
    img = glued.transitions[0].map.apply(corner)
    fb = glued.charts[0].chart.boundary(jets.seed(img, order=0)).value
    assert np.abs(fb).max() < 1e-12
    _, X, Y, _ = nb.tube_coords(img)
    assert np.abs(X**2 + Y**2 - glued.meta["patch_radius2"]).max() < 1e-12
    assert glued.charts[0].boundary_accept(img).all()


def test_surgery_guards():
    base = s1_d3(1, 0)
    with pytest.raises(UnsupportedBase):
        handles.attach_2handle(cotangent_t2(1, 0))
    with pytest.raises(UnsupportedBase):
        handles.attach_2handle(s1_d3(2, 1))
    with pytest.raises(NotLegendrian):
        handles.attach_2handle(base, orbit_ref=[0.0, 1.0, 0.0, 0.3])
    with pytest.raises(NotLegendrian):
        handles.attach_2handle(base, orbit_ref=[0.0, 0.5, 0.0, 0.0])
    with pytest.raises(CollarTooDeep):
        handles.attach_2handle(base, eps=0.5)
    with pytest.raises(ValueError):
        handles.attach_2handle(base, kappa=0.9)


# sha256 of both attach_2handle transition maps (value, gradient and Hessian
# bytes at jet orders 0, 1, 2) and of the predicate masks, over 200
# sample_domain points per chart, default_rng([5, ci]); recorded before the
# orbit neighborhoods were written as place/tube jet maps
SURGERY_SHA256 = {
    "s1_d3(1,0)": "c5a40fd88007496e176ab3505964a018b312724f92b23158a8bba9a923802ffb",
    "disc_d4(1,-1)": "1000a32b0134b89260c3819bd317787433e4ffb408fb63d3280fa5255807ff3d",
}


def _surgery_digest(glued) -> str:
    h = hashlib.sha256()
    pts = [sample_domain(cd.chart, 200, np.random.default_rng([5, ci])) for ci, cd in enumerate(glued.charts)]
    for tr in glued.transitions:
        for order in (0, 1, 2):
            for out in tr.map.forward(jets.seed(pts[tr.src], order=order)):
                for arr in (out.value, out.grad, out.hess):
                    if arr is not None:
                        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    # the base-side predicates also see the handle points' images, which lie
    # in the orbit tube, so their masks are not all of one value
    to_base, to_handle = glued.transitions
    base_pts = np.concatenate([pts[0], to_base.map.apply(pts[1])])
    for mask in (
        to_base.valid(pts[1]),
        to_handle.valid(base_pts),
        glued.charts[0].boundary_accept(base_pts),
    ):
        h.update(np.asarray(mask, dtype=bool).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("spec", sorted(SURGERY_SHA256))
def test_surgery_maps_match_pins(spec):
    glued = handles.attach_2handle(registry.build(spec))
    assert _surgery_digest(glued) == SURGERY_SHA256[spec]


@pytest.mark.parametrize(
    "spec, core", [("s1_d3(1,0)", [1.0, 0.0, 0.0, 0.0]), ("disc_d4(1,-1)", [0.0, 0.0, 0.0, 0.0])]
)
def test_surgery_entry_predicate_rejects_the_tube_core(spec, core):
    to_handle = handles.attach_2handle(registry.build(spec)).transitions[1]
    pts = np.array([core, to_handle.map.source.wrap(np.full(4, 0.3))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = to_handle.valid(pts)
    assert not mask[0]
    assert mask[1] == to_handle.valid(pts[1:])[0]
