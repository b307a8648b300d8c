"""Exterior calculus identities at the coefficient level: d^2 = 0, Cartan's formula, functoriality."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflow import forms, jets, registry
from hamflow.chart import Chart, SmoothMap, sample_domain

from oracles import lie_derivative_poly_form, pulled_back


def _chart(dim: int, name: str = "c") -> Chart:
    return Chart(
        name=name,
        coords=tuple(f"x{i}" for i in range(dim)),
        periodic=(False,) * dim,
        box_lo=(-2.0,) * dim,
        box_hi=(2.0,) * dim,
    )


def _poly_one_form(dim: int):
    """alpha = x0^2 x1 dx0 + sin(x1) dx1 + x0 x_(d-1) dx_(d-1)."""

    def fn(jc):
        out = {
            (0,): jc[0].sq() * jc[1],
            (1,): jets.sin(jc[1]),
            (dim - 1,): jc[0] * jc[dim - 1],
        }
        return out

    return fn


def test_exterior_derivative_frozen_example():
    # d(x^2 y dx + x y dy) = (y - x^2) dx^dy after cancellation
    def fn(jc):
        return {(0,): jc[0].sq() * jc[1], (1,): jc[0] * jc[1]}

    pts = np.array([[0.7, -1.2], [0.3, 0.4]])
    coeffs = forms.d_coeffs(fn(jets.seed(pts, order=1)), 2)
    assert set(coeffs) == {(0, 1)}
    expected = pts[:, 1] - pts[:, 0] ** 2
    assert np.allclose(coeffs[(0, 1)].value, expected, atol=1e-14)


def test_d_squared_vanishes():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4, 6):
        alpha = _poly_one_form(dim)
        pts = rng.uniform(-1.5, 1.5, size=(100, dim))
        coeffs = forms.d_coeffs(forms.d_coeffs(alpha(jets.seed(pts, order=2)), dim), dim)
        for c in coeffs.values():
            assert np.abs(c.value).max() < 1e-10


def test_interior_product_same_vector_twice_vanishes():
    rng = np.random.default_rng(5)
    dim = 4

    def omega_fn(jc):
        return {
            (0, 1): jc[2] * jc[3] + 1.0,
            (1, 2): jets.cos(jc[0]),
            (0, 3): jc[1].sq(),
            (2, 3): jets.constant(1.0, jc[0]),
        }

    def v(jc):
        return [jc[1] * jc[2], jets.sin(jc[0]), jc[3] + 2.0, jc[0] - jc[1]]

    pts = rng.uniform(-1.0, 1.0, size=(60, dim))
    jc = jets.seed(pts, order=0)
    coeffs = forms.interior_coeffs(v(jc), forms.interior_coeffs(v(jc), omega_fn(jc)))
    for c in coeffs.values():
        assert np.abs(c.value).max() < 1e-12


def test_wedge_antisymmetry_and_volume():
    dim = 4

    def a_fn(jc):
        return {(0,): jc[1], (2,): jets.exp(jc[3])}

    def b_fn(jc):
        return {(1,): jc[0].sq(), (3,): jets.constant(2.0, jc[0])}

    pts = np.random.default_rng(2).uniform(-1, 1, size=(30, dim))
    jc = jets.seed(pts, order=0)
    ca = forms.wedge_coeffs(a_fn(jc), b_fn(jc))
    cb = forms.wedge_coeffs(b_fn(jc), a_fn(jc))
    assert set(ca) == set(cb)
    for k in ca:
        assert np.allclose(ca[k].value, -cb[k].value, atol=1e-13)

    # omega ^ omega of the standard form doubles the volume coefficient
    omega = forms.constant_form({(0, 1): 1.0, (2, 3): 1.0}).coefficients(jc)
    cv = forms.wedge_coeffs(omega, omega)
    assert np.allclose(cv[(0, 1, 2, 3)].value, 2.0, atol=1e-14)


def test_pullback_polar_coordinates():
    polar = Chart(
        name="polar",
        coords=("r", "th"),
        periodic=(False, True),
        box_lo=(0.1, 0.0),
        box_hi=(2.0, 2 * np.pi),
    )
    cart = _chart(2, "cart")

    def fwd(jc):
        r, th = jc
        return [r * jets.cos(th), r * jets.sin(th)]

    to_cart = SmoothMap(source=polar, target=cart, forward=fwd)
    area = forms.constant_form({(0, 1): 1.0})
    pts = np.array([[0.5, 1.0], [1.7, 4.2]])
    coeffs = pulled_back(to_cart, area.coefficients, jets.seed(pts, order=1))
    assert np.allclose(coeffs[(0, 1)].value, pts[:, 0], atol=1e-13)


def test_pullback_functoriality():
    c2 = _chart(2, "a")
    c2b = _chart(2, "b")
    c2c = _chart(2, "c")

    def phi(jc):
        x, y = jc
        return [x + y.sq(), x * y]

    def psi(jc):
        u, v = jc
        return [jets.sin(u), u * v + v]

    m_phi = SmoothMap(source=c2, target=c2b, forward=phi)
    m_psi = SmoothMap(source=c2b, target=c2c, forward=psi)
    m_comp = SmoothMap(source=c2, target=c2c, forward=lambda jc: psi(phi(jc)))

    def omega_fn(jc):
        return {(0, 1): jc[0] + jc[1].sq() + 2.0}

    pts = np.random.default_rng(8).uniform(-1, 1, size=(50, 2))
    jc = jets.seed(pts, order=2)
    lhs = pulled_back(m_comp, omega_fn, jc)
    rhs = pulled_back(m_phi, lambda jc_b: pulled_back(m_psi, omega_fn, jc_b), jc)
    res = forms.coeff_residual(lhs, rhs)
    assert res.max() < 1e-11


def _rk4_flow_map(v, tau, chart):
    """One fourth-order step of the flow of v, as a SmoothMap."""

    def fwd(jc):
        k1 = v(jc)
        s1 = [c + 0.5 * tau * k for c, k in zip(jc, k1)]
        k2 = v(s1)
        s2 = [c + 0.5 * tau * k for c, k in zip(jc, k2)]
        k3 = v(s2)
        s3 = [c + tau * k for c, k in zip(jc, k3)]
        k4 = v(s3)
        return [
            c + (tau / 6.0) * (a + 2 * b + 2 * d + e)
            for c, a, b, d, e in zip(jc, k1, k2, k3, k4)
        ]

    return SmoothMap(source=chart, target=chart, forward=fwd)


def test_cartan_formula_against_flow_pullback():
    dim = 3
    chart = _chart(dim)

    def v(jc):
        return [jc[1] * jc[2], -jc[0] + 0.3 * jc[2].sq(), jets.sin(jc[0] + jc[1])]

    def omega_fn(jc):
        return {
            (0, 1): 1.0 + jc[2].sq(),
            (0, 2): jc[0] * jc[1],
            (1, 2): jets.cos(jc[0]),
        }

    tau = 1e-4
    flow = _rk4_flow_map(v, tau, chart)
    pts = np.random.default_rng(4).uniform(-1, 1, size=(40, dim))
    jc = jets.seed(pts, order=2)
    base_c = omega_fn(jc)
    lie_c = forms.lie_coeffs(v(jc), base_c, dim)
    pulled_c = pulled_back(flow, omega_fn, jc)
    for k in lie_c:
        fd = (pulled_c[k].value - base_c[k].value) / tau
        scale = 1.0 + np.abs(lie_c[k].value)
        assert np.abs(lie_c[k].value - fd).max() < 1e-4 * scale.max()


def test_lie_bracket_frozen():
    # [x d/dy, y d/dx] = x d/dx - y d/dy
    def v(jc):
        return [jets.constant(0.0, jc[0]), jc[0]]

    def w(jc):
        return [jc[1], jets.constant(0.0, jc[0])]

    pts = np.array([[0.8, -0.4], [1.5, 2.0]])
    jc = jets.seed(pts, order=1)
    vals = np.stack([c.value for c in forms.lie_bracket(v(jc), w(jc))], axis=1)
    assert np.allclose(vals[:, 0], pts[:, 0], atol=1e-14)
    assert np.allclose(vals[:, 1], -pts[:, 1], atol=1e-14)


def test_metric_gradient_diagonal_metric():
    def metric(jc):
        two = jets.constant(2.0, jc[0])
        half = jets.constant(0.5, jc[0])
        zero = jets.constant(0.0, jc[0])
        return [[two, zero], [zero, half]]

    def scalar(jc):
        return jc[0].sq() + 3.0 * jc[1]

    grad = forms.metric_gradient(metric, scalar, 2)
    pts = np.array([[1.1, 0.3]])
    vals = forms.field_values(grad, jets.seed(pts, order=1))
    assert vals[0] == pytest.approx([1.1, 6.0], abs=1e-13)


def _no_jet_solve(mat, rhs):
    raise AssertionError("order-1 gradient must not run the jet LU")


@pytest.mark.parametrize("spec", registry.ZOO)
def test_order1_gradient_matches_order2(spec, monkeypatch):
    """The value-level gradient (order-1 jets) gives the jet LU's values bitwise."""
    for ci, cd in enumerate(registry.build(spec).charts):
        if cd.metric is None:
            continue
        pts = sample_domain(cd.chart, 64, np.random.default_rng([5, ci]))
        grad = cd.gradient_field()
        slow = forms.field_values(grad, jets.seed(pts, order=2))
        with monkeypatch.context() as patch:
            patch.setattr(forms, "solve_spd_jet", _no_jet_solve)
            fast = forms.field_values(grad, jets.seed(pts, order=1))
        assert fast.tobytes() == slow.tobytes(), cd.chart.name


# ----------------------------------------------------------------------
# form identities over random polynomial forms, fields and maps, at order 2


@st.composite
def _poly(draw, dim):
    """A polynomial of degree <= 3 as [(coef, exps)]."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        exps = [0] * dim
        for _ in range(draw(st.integers(0, 3))):
            exps[draw(st.integers(0, dim - 1))] += 1
        terms.append((draw(st.floats(-2.0, 2.0)), tuple(exps)))
    return terms


@st.composite
def _poly_form(draw, dim, degree):
    keys = list(combinations(range(dim), degree))
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=len(keys), unique=True))
    return {idx: draw(_poly(dim)) for idx in sorted(chosen)}


def _poly_jet(terms, jc):
    acc = jets.constant(0.0, jc[0])
    for coef, exps in terms:
        t = jets.constant(coef, jc[0])
        for i, e in enumerate(exps):
            for _ in range(e):
                t = t * jc[i]
        acc = acc + t
    return acc


def _as_coeffs(poly_form):
    return lambda jc: {k: _poly_jet(p, jc) for k, p in poly_form.items()}


def _as_field(polys):
    return lambda jc: [_poly_jet(p, jc) for p in polys]


@st.composite
def _form_case(draw, max_degree):
    dim = draw(st.integers(2, 4))
    degree = draw(st.integers(0, min(max_degree, dim)))
    pts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=6 * dim, max_size=6 * dim)))
    return dim, degree, draw(_poly_form(dim, degree)), pts.reshape(6, dim)


def _values(coeffs, keys, n=6):
    return {k: coeffs[k].value if k in coeffs else np.zeros(n) for k in keys}


def _assert_close(a, b, keys, rtol=1e-9):
    for k in keys:
        scale = 1.0 + np.abs(a[k]).max() + np.abs(b[k]).max()
        assert np.abs(a[k] - b[k]).max() <= rtol * scale, k


@settings(max_examples=40, deadline=None)
@given(case=_form_case(max_degree=2))
def test_d_squared_vanishes_on_polynomial_forms(case):
    dim, _, poly_form, pts = case
    form = _as_coeffs(poly_form)
    dd = forms.d_coeffs(forms.d_coeffs(form(jets.seed(pts, order=2)), dim), dim)
    for c in dd.values():
        assert np.abs(c.value).max() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(case=_form_case(max_degree=3), data=st.data())
def test_cartan_formula_on_polynomial_forms(case, data):
    dim, _, poly_form, pts = case
    field = [data.draw(_poly(dim)) for _ in range(dim)]
    jc = jets.seed(pts, order=2)
    expected = lie_derivative_poly_form(field, poly_form, dim, pts)
    comps, coeffs = _as_field(field)(jc), _as_coeffs(poly_form)(jc)
    cartan = forms.interior_coeffs(comps, forms.d_coeffs(coeffs, dim))
    for idx, c in forms.d_coeffs(forms.interior_coeffs(comps, coeffs), dim).items():
        cartan[idx] = cartan[idx] + c if idx in cartan else c
    for lie in (cartan, forms.lie_coeffs(comps, coeffs, dim)):
        assert set(lie) <= set(expected)
        _assert_close(_values(lie, expected), expected, expected)


@settings(max_examples=40, deadline=None)
@given(case=_form_case(max_degree=2), data=st.data())
def test_pullback_commutes_with_d_on_polynomial_maps(case, data):
    dim, degree, poly_form, pts = case
    comps = [data.draw(_poly(dim)) for _ in range(dim)]
    mapping = SmoothMap(source=_chart(dim, "src"), target=_chart(dim, "tgt"), forward=_as_field(comps))
    form = _as_coeffs(poly_form)
    jc = jets.seed(pts, order=2)
    lhs = pulled_back(mapping, lambda jc_t: forms.d_coeffs(form(jc_t), dim), jc)
    rhs = forms.d_coeffs(pulled_back(mapping, form, jc), dim)
    keys = list(combinations(range(dim), degree + 1))
    _assert_close(_values(lhs, keys), _values(rhs, keys), keys)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 4), data=st.data())
def test_wedge_antisymmetry_on_polynomial_forms(dim, data):
    p = data.draw(st.integers(1, min(3, dim - 1)))
    q = data.draw(st.integers(1, min(4, dim) - p))
    a = _as_coeffs(data.draw(_poly_form(dim, p)))
    b = _as_coeffs(data.draw(_poly_form(dim, q)))
    pts = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=6 * dim, max_size=6 * dim)))
    jc = jets.seed(pts.reshape(6, dim), order=2)
    ab = forms.wedge_coeffs(a(jc), b(jc))
    ba = forms.wedge_coeffs(b(jc), a(jc))
    keys = list(combinations(range(dim), p + q))
    sign = -1.0 if (p * q) % 2 else 1.0
    flipped = {k: sign * v for k, v in _values(ba, keys).items()}
    _assert_close(_values(ab, keys), flipped, keys)
