"""Jet arithmetic against closed forms and central finite differences."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflow import jets
from hamflow.errors import JetOrderError

from oracles import (
    fd_gradient,
    fd_hessian,
    lift_constant,
    reference_seed,
    triple_add,
    triple_div,
    triple_mul,
    triple_sub,
)


def test_frozen_smooth_expression():
    # f(x, y) = sin(x) e^y + x^2 y at (0.7, -0.3); reference values frozen
    # from an independent finite-difference oracle run.
    x, y = jets.seed(np.array([[0.7, -0.3]]), order=2)
    f = jets.sin(x) * jets.exp(y) + x.sq() * y
    assert f.value[0] == pytest.approx(0.3302482007911177, abs=1e-14)
    assert f.grad[0] == pytest.approx(
        [0.14660902828640804, 0.9672482007911176], abs=1e-13
    )
    expected_hess = np.array(
        [
            [-1.0772482007911177, 1.966609028286408],
            [1.966609028286408, 0.4772482007911177],
        ]
    )
    assert np.allclose(f.hess[0], expected_hess, atol=1e-13)


def test_frozen_atan2_sqrt_log_expression():
    # g(x, y, z) = atan2(y, x) sqrt(z) + log(z)/x at (0.8, -0.5, 1.7).
    x, y, z = jets.seed(np.array([[0.8, -0.5, 1.7]]), order=2)
    g = jets.atan2(y, x) * jets.sqrt(z) + jets.log(z) / x
    assert g.value[0] == pytest.approx(-0.0650390861987481, abs=1e-12)
    assert g.grad[0] == pytest.approx(
        [-0.09661199, 1.17199144, 0.52108106], abs=1e-7
    )
    expected_hess = np.array(
        [
            [0.7559231, -0.64196121, -0.70367767],
            [-0.64196121, 1.31684663, 0.34470343],
            [-0.70367767, 0.34470343, -0.36952108],
        ]
    )
    assert np.allclose(g.hess[0], expected_hess, atol=1e-6)


def _expr(a, b, c):
    """A deliberately gnarly composite used by the property tests."""

    def fn(p):
        x, y = p[0], p[1]
        num = jets.sin(a * x) * jets.exp(b * y) + (x * y + c) ** 3
        den = 2.0 + jets.cos(x) * jets.cos(x) + y.sq()
        return num / den + jets.sqrt(2.5 + jets.sin(x + y)) - jets.atan2(y + 3.0, x + 4.0)

    return fn


def _expr_float(a, b, c):
    def fn(p):
        x, y = p
        num = np.sin(a * x) * np.exp(b * y) + (x * y + c) ** 3
        den = 2.0 + np.cos(x) ** 2 + y**2
        return num / den + np.sqrt(2.5 + np.sin(x + y)) - np.arctan2(y + 3.0, x + 4.0)

    return fn


coeff = st.floats(min_value=-2.0, max_value=2.0)
coord = st.floats(min_value=-1.5, max_value=1.5)


@settings(max_examples=60, deadline=None)
@given(a=coeff, b=coeff, c=coeff, x0=coord, y0=coord)
def test_jet_matches_finite_differences(a, b, c, x0, y0):
    pt = np.array([[x0, y0]])
    out = _expr(a, b, c)(jets.seed(pt, order=2))
    f = _expr_float(a, b, c)
    scale = 1.0 + abs(out.value[0])
    assert out.value[0] == pytest.approx(f(pt[0]), rel=1e-12)
    g = fd_gradient(f, pt[0])
    h = fd_hessian(f, pt[0])
    gscale = 1.0 + np.abs(g).max()
    hscale = 1.0 + np.abs(h).max()
    assert np.allclose(out.grad[0], g, atol=1e-5 * gscale)
    assert np.allclose(out.hess[0], h, atol=2e-5 * hscale + 1e-6 * scale)


def test_batched_evaluation_matches_loop():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, size=(40, 2))
    fn = _expr(1.3, -0.7, 0.4)
    batched = fn(jets.seed(pts, order=2))
    for i, p in enumerate(pts):
        single = fn(jets.seed(p[None, :], order=2))
        assert batched.value[i] == pytest.approx(single.value[0], abs=1e-14)
        assert np.allclose(batched.grad[i], single.grad[0], atol=1e-14)
        assert np.allclose(batched.hess[i], single.hess[0], atol=1e-14)


def test_partial_drops_one_order():
    x, y = jets.seed(np.array([[0.3, 1.1]]), order=2)
    f = x.sq() * y  # df/dx = 2xy, d2f/dxdy = 2x
    fx = f.partial(0)
    assert fx.order == 1
    assert fx.value[0] == pytest.approx(2 * 0.3 * 1.1)
    assert fx.grad[0] == pytest.approx([2 * 1.1, 2 * 0.3])
    fxy = fx.partial(1)
    assert fxy.order == 0
    assert fxy.value[0] == pytest.approx(0.6)
    with pytest.raises(JetOrderError):
        fxy.partial(0)


def test_order_propagation_through_arithmetic():
    x, y = jets.seed(np.array([[0.4, 0.2]]), order=1)
    assert (x * y).order == 1
    assert (x * y).partial(0).order == 0
    # mixed-order products degrade to the weaker operand
    x2, y2 = jets.seed(np.array([[0.4, 0.2]]), order=2)
    mixed = x2 * (y2.partial(1))
    assert mixed.order == 1
    # constants keep the stronger order
    assert (x2 * 3.0).order == 2
    assert (2.0 / y2).order == 2


def test_constants_are_flat():
    x, _ = jets.seed(np.array([[0.5, 0.25], [1.0, 2.0]]), order=2)
    c = jets.constant(4.0, x)
    assert c.order == 2
    assert np.all(c.value == 4.0)
    assert not c.grad.any()
    assert not c.hess.any()
    s = x - 7
    assert s.value[0] == pytest.approx(-6.5)
    r = 7 - x
    assert r.value[1] == pytest.approx(6.0)
    assert r.grad[1, 0] == pytest.approx(-1.0)


def test_division_and_power_consistency():
    (x,) = jets.seed(np.array([[1.7]]), order=2)
    lhs = 1.0 / x
    rhs = x**-1.0
    assert lhs.value[0] == pytest.approx(rhs.value[0], rel=1e-14)
    assert lhs.grad[0, 0] == pytest.approx(rhs.grad[0, 0], rel=1e-13)
    assert lhs.hess[0, 0, 0] == pytest.approx(rhs.hess[0, 0, 0], rel=1e-13)
    assert (x**2).value[0] == pytest.approx(x.sq().value[0], rel=1e-14)


def test_trig_second_derivatives_close_loop():
    (t,) = jets.seed(np.array([[0.9]]), order=2)
    s = jets.sin(t)
    assert s.hess[0, 0, 0] == pytest.approx(-np.sin(0.9), abs=1e-15)
    c = jets.cos(t)
    assert c.hess[0, 0, 0] == pytest.approx(-np.cos(0.9), abs=1e-15)


# ----------------------------------------------------------------------
# constant operands against the plain-triple reference (tests/oracles.py)

_REFERENCE = {"+": triple_add, "-": triple_sub, "*": triple_mul, "/": triple_div}
_APPLY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}
_entry = st.floats(min_value=-1e3, max_value=1e3)
_divisor = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=-1e3, max_value=-1e-3)
)


@st.composite
def _constant_case(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 2))
    op = draw(st.sampled_from("+-*/"))
    left = draw(st.booleans())
    kind = draw(st.sampled_from(["int", "float", "np.float64", "array"]))
    # a divisor stays away from zero so every reference entry is finite
    vals = st.lists(_divisor if op == "/" and left else _entry, min_size=n, max_size=n)
    value = np.array(draw(vals))
    grad = np.array(draw(st.lists(_entry, min_size=n * d, max_size=n * d))).reshape(n, d)
    hess = np.array(draw(st.lists(_entry, min_size=n * d * d, max_size=n * d * d))).reshape(n, d, d)
    hess = hess + np.swapaxes(hess, 1, 2)
    scalar = _divisor if op == "/" and not left else _entry
    if kind == "int":
        c = draw(st.integers(1, 9) if op == "/" and not left else st.integers(-9, 9))
    elif kind == "float":
        c = draw(scalar)
    elif kind == "np.float64":
        c = np.float64(draw(scalar))
    else:
        c = np.array(draw(st.lists(scalar, min_size=n, max_size=n)))
    x = jets.Jet(value, grad if order >= 1 else None, hess if order >= 2 else None)
    return x, c, op, left


@settings(max_examples=300, deadline=None)
@given(case=_constant_case())
def test_constant_operands_match_reference(case):
    x, c, op, left = case
    triple = (x.value, x.grad, x.hess)
    const = lift_constant(c, triple)
    if left:
        out, ref = _APPLY[op](c, x), _REFERENCE[op](const, triple)
    else:
        out, ref = _APPLY[op](x, c), _REFERENCE[op](triple, const)
    assert isinstance(out, jets.Jet)
    assert out.value.tobytes() == ref[0].tobytes()
    for got, want in ((out.grad, ref[1]), (out.hess, ref[2])):
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)


def test_ndarray_on_the_left_gives_a_jet():
    (x,) = jets.seed(np.array([[1.0], [2.0]]), order=1)
    prod = np.array([2.0, 3.0]) * x
    assert isinstance(prod, jets.Jet)
    assert prod.value.tolist() == [2.0, 6.0]
    assert prod.grad.tolist() == [[2.0], [3.0]]
    total = np.array([2.0, 3.0]) + x
    assert isinstance(total, jets.Jet)
    assert total.value.tolist() == [3.0, 5.0]
    assert total.grad.tolist() == [[1.0], [1.0]]


def test_constant_keeps_negative_zero_derivative():
    x = jets.Jet(np.array([1.5]), np.array([[-0.0, 1.0]]), np.array([[[-0.0, 0.0], [0.0, 0.0]]]))
    for out in (x + 1.0, x - 1.0, x * 2.0, x / 2.0):
        assert np.signbit(out.grad[0, 0])
        assert np.signbit(out.hess[0, 0, 0])


def test_nonfinite_value_keeps_constant_product_derivatives():
    x = jets.Jet(np.array([np.inf, np.nan]), np.array([[1.0], [2.0]]), np.array([[[3.0]], [[4.0]]]))
    out = x * 2.0
    assert np.isposinf(out.value[0]) and np.isnan(out.value[1])
    assert out.grad.tolist() == [[2.0], [4.0]]
    assert out.hess.tolist() == [[[6.0]], [[8.0]]]


def test_order0_jets_form_no_derivative_factors():
    # sqrt and atan2 are finite at 0 though their derivatives are not; an
    # order-0 jet must not form those derivatives (and warn) to get its value
    z = jets.seed(np.zeros((1, 2)), order=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jets.sqrt(z[0]).value[0] == 0.0
        assert jets.atan2(z[1], z[0]).value[0] == 0.0
        assert jets.sqrt(z[0] + 4.0).grad is None


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("rows", [1, 500])
def test_seed_matches_reference_bitwise(order, rows):
    pts = np.random.default_rng([rows, order]).uniform(-3.0, 3.0, (rows, 4))
    pts[0, 1] = -0.0
    got = jets.seed(pts, order=order)
    want = reference_seed(pts, order)
    assert len(got) == len(want) == 4
    for jet, triple in zip(got, want):
        for arr, ref in zip((jet.value, jet.grad, jet.hess), triple):
            assert (arr is None) == (ref is None)
            if ref is not None:
                assert arr.shape == ref.shape and arr.dtype == ref.dtype
                assert arr.tobytes() == ref.tobytes()


def test_positive_cube_is_a_flat_c2_ramp_reaching_one():
    """The disc-bundle lid's ramp: flat to second order left of 0, vanishing to second order at 0, 1 at 1."""
    h = 1e-3
    out = jets.positive_cube(jets.seed(np.array([[-h], [0.0], [h], [1.0]]), order=2)[0])
    vals, grads, hesss = out.value, out.grad[:, 0], out.hess[:, 0, 0]
    assert vals[0] == grads[0] == hesss[0] == 0.0
    assert vals[1] == grads[1] == hesss[1] == 0.0
    assert abs(vals[2]) <= 10 * h**3 and abs(grads[2]) <= 10 * h**2 and abs(hesss[2]) <= 10 * h
    assert vals[3] == 1.0


def test_value_at_and_values_read_batch_values_bitwise():
    """``value_at`` is one row of the batch evaluation, and ``values`` stacks components as columns."""
    pts = np.array([[0.3, -1.2], [2.5, 0.7], [-0.4, 1e-3]])

    def field(jc):
        return jets.sin(jc[0]) * jc[1] + jets.exp(jc[1])

    batch = field(jets.seed(pts, order=2)).value
    for p, want in zip(pts, batch):
        got = jets.value_at(field, p)
        assert isinstance(got, float) and got == want
    comps = [field(jets.seed(pts, order=0)), jets.seed(pts, order=0)[0]]
    stacked = jets.values(comps)
    assert stacked.shape == (3, 2)
    assert stacked[:, 0].tobytes() == batch.tobytes() and stacked[:, 1].tobytes() == pts[:, 0].tobytes()
