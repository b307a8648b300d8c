"""Exterior calculus over jets.

A :class:`KForm` of degree k on a d-dimensional chart is represented by a
coefficient function: given the seeded coordinate jets of a point batch, it
returns ``{sorted index tuple: Jet}`` for the strictly increasing multi-indices
with nonzero coefficient.  All operators below build new coefficient functions
by closure, so forms compose lazily and every evaluation carries whatever
derivative order the input jets support.

Each operator's body is a coefficient-level function (:func:`d_coeffs`,
:func:`interior_coeffs`, :func:`wedge_coeffs`, :func:`pullback_coeffs`) that
works on already evaluated coefficient dicts, field components or image
jets; the lazy operator's closure only evaluates its operands and calls it.
The Lie derivative exists only at this level, as :func:`lie_coeffs`.  A
caller that needs several expressions built from one form (a form, its d and
their wedge, or a pullback and the map's images) evaluates the form once and
calls these functions directly, with the same arithmetic as the lazy route.

Degrees 0 through 4 are supported on charts of dimension up to 6, which covers
2-forms, their exterior derivatives, volume checks omega ^ omega, and contact
3-forms alpha ^ d(alpha).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from . import jets as J
from .errors import DegreeOverflow, DegreeUnderflow, DimensionMismatch
from .jets import Jet
from .linalg import solve_spd_jet, solve_spd_values

Array = np.ndarray
Coeffs = dict[tuple[int, ...], Jet]
VectorField = Callable[[Sequence[Jet]], list[Jet]]
MetricField = Callable[[Sequence[Jet]], list[list[Jet]]]
ScalarField = Callable[[Sequence[Jet]], Jet]

MAX_DEGREE = 4


class KForm:
    """Differential form of fixed degree with lazily evaluated coefficients."""

    __slots__ = ("degree", "dim", "_fn")

    def __init__(self, degree: int, dim: int, coeff_fn: Callable[[Sequence[Jet]], Coeffs]):
        if degree < 0:
            raise DegreeUnderflow(f"form degree {degree} below zero")
        if degree > MAX_DEGREE:
            raise DegreeOverflow(f"form degree {degree} above supported {MAX_DEGREE}")
        if not (1 <= dim <= 6):
            raise DimensionMismatch(f"chart dimension {dim} outside 1..6")
        self.degree = degree
        self.dim = dim
        self._fn = coeff_fn

    def coefficients(self, jet_coords: Sequence[Jet]) -> Coeffs:
        return self._fn(jet_coords)

    def at(self, points: Array, order: int = 0) -> Coeffs:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.coefficients(J.seed(pts, order=order))


def _insert_index(idx: tuple[int, ...], j: int) -> tuple[int, tuple[int, ...]]:
    """Insert j into a sorted tuple; returns (sign, new tuple) or sign 0."""
    if j in idx:
        return 0, idx
    pos = bisect_left(idx, j)
    sign = -1 if pos % 2 else 1
    return sign, idx[:pos] + (j,) + idx[pos:]


def _merge_indices(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Concatenation sign of two sorted disjoint tuples, or sign 0 on overlap."""
    if set(a) & set(b):
        return 0, ()
    sign = 1
    merged = list(a)
    for x in b:
        pos = bisect_left(merged, x)
        if (len(merged) - pos) % 2:
            sign = -sign
        merged.insert(pos, x)
    return sign, tuple(merged)


def _acc(store: Coeffs, key: tuple[int, ...], term: Jet, sign: int) -> None:
    if sign == 0:
        return
    t = term if sign > 0 else -term
    if key in store:
        store[key] = store[key] + t
    else:
        store[key] = t


# ----------------------------------------------------------------------
# operators


def d_coeffs(coeffs: Coeffs, dim: int) -> Coeffs:
    """Exterior derivative of evaluated coefficients, one jet order lower."""
    out: Coeffs = {}
    for idx, c in coeffs.items():
        for j in range(dim):
            sign, key = _insert_index(idx, j)
            if sign == 0:
                continue
            _acc(out, key, c.partial(j), sign)
    return out


def interior_coeffs(comps: Sequence[Jet], coeffs: Coeffs) -> Coeffs:
    """Contraction of evaluated field components into evaluated coefficients."""
    out: Coeffs = {}
    for idx, c in coeffs.items():
        for pos, i in enumerate(idx):
            sign = -1 if pos % 2 else 1
            key = idx[:pos] + idx[pos + 1 :]
            _acc(out, key, comps[i] * c, sign)
    return out


def wedge_coeffs(ca: Coeffs, cb: Coeffs) -> Coeffs:
    """Wedge product of two evaluated coefficient dicts."""
    out: Coeffs = {}
    for ia, va in ca.items():
        for ib, vb in cb.items():
            sign, key = _merge_indices(ia, ib)
            if sign == 0:
                continue
            _acc(out, key, va * vb, sign)
    return out


def lie_coeffs(comps: Sequence[Jet], coeffs: Coeffs, dim: int) -> Coeffs:
    """Cartan formula i_v d + d i_v on evaluated field components and coefficients."""
    out = interior_coeffs(comps, d_coeffs(coeffs, dim))
    for idx, c in d_coeffs(interior_coeffs(comps, coeffs), dim).items():
        _acc(out, idx, c, 1)
    return out


def exterior_derivative(form: KForm) -> KForm:
    if form.degree >= MAX_DEGREE:
        raise DegreeOverflow(f"d on degree-{form.degree} form exceeds degree {MAX_DEGREE}")
    return KForm(form.degree + 1, form.dim, lambda jc: d_coeffs(form.coefficients(jc), form.dim))


def interior_product(v: VectorField, form: KForm) -> KForm:
    if form.degree == 0:
        raise DegreeUnderflow("interior product of a 0-form")
    return KForm(form.degree - 1, form.dim, lambda jc: interior_coeffs(v(jc), form.coefficients(jc)))


def wedge(a: KForm, b: KForm) -> KForm:
    if a.dim != b.dim:
        raise DimensionMismatch(f"wedge of forms on dims {a.dim} and {b.dim}")
    if a.degree + b.degree > MAX_DEGREE:
        raise DegreeOverflow(f"wedge degree {a.degree + b.degree} above {MAX_DEGREE}")
    return KForm(a.degree + b.degree, a.dim, lambda jc: wedge_coeffs(a.coefficients(jc), b.coefficients(jc)))


def _det_jet(rows: list[list[Jet]]) -> Jet:
    k = len(rows)
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = None
    for col in range(k):
        minor = [[rows[r][c] for c in range(k) if c != col] for r in range(1, k)]
        term = rows[0][col] * _det_jet(minor)
        if col % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def compose_jet(coeff: Jet, img: Sequence[Jet]) -> Jet:
    """Chain-rule composition: a jet in target coordinates, composed with a map.

    ``coeff`` carries derivatives with respect to the target chart at the image
    points; ``img`` are the image coordinates as jets over the source chart.
    Returns the composite as a jet over the source chart, at the order both
    operands support.
    """
    value = coeff.value.copy()
    grad = None
    hess = None
    if coeff.grad is not None and all(c.grad is not None for c in img):
        jac = np.stack([c.grad for c in img], axis=1)  # (n, tdim, sdim)
        grad = np.einsum("nt,nts->ns", coeff.grad, jac)
        if coeff.hess is not None and all(c.hess is not None for c in img):
            hess = np.einsum("ntu,nta,nub->nab", coeff.hess, jac, jac)
            for i, c in enumerate(img):
                hess = hess + coeff.grad[:, i, None, None] * c.hess
    return Jet(value, grad, hess)


def pullback_coeffs(form: KForm, img: Sequence[Jet], src_dim: int) -> Coeffs:
    """Coefficients of the pullback of a target-chart form, given the image jets.

    ``img`` are the map's image coordinates as jets over the source chart.
    The form's coefficients are evaluated on freshly seeded target jets at
    the image points and composed back by the chain rule, so nested
    pullbacks compose correctly.  Coefficient jets of the result sit one
    derivative order below ``img`` (the Jacobian minors consume one order).
    """
    order = min(j.order for j in img) if img else 0
    pts = np.stack([j.value for j in img], axis=1)
    tj = J.seed(pts, order=max(order, 0))
    coeffs = {idx: compose_jet(c, img) for idx, c in form.coefficients(tj).items()}
    if form.degree == 0:
        return coeffs
    jac = [[img[i].partial(a) for a in range(src_dim)] for i in range(form.dim)]
    out: Coeffs = {}
    for tgt_idx, c in coeffs.items():
        for src_idx in combinations(range(src_dim), form.degree):
            rows = [[jac[i][a] for a in src_idx] for i in tgt_idx]
            minor = _det_jet(rows)
            _acc(out, src_idx, c * minor, 1)
    return out


def pullback(mapping, form: KForm) -> KForm:
    """Pullback of a form on the target chart through a smooth map (see :func:`pullback_coeffs`)."""
    src_dim = mapping.source.dim
    if form.dim != mapping.target.dim:
        raise DimensionMismatch("form lives on a chart of different dimension than the map target")
    return KForm(form.degree, src_dim, lambda jc: pullback_coeffs(form, mapping.forward(jc), src_dim))


def lie_bracket(v: VectorField, w: VectorField, dim: int) -> VectorField:
    """Commutator vector field [v, w] (component jets one order lower)."""

    def fn(jc: Sequence[Jet]) -> list[Jet]:
        vc = v(jc)
        wc = w(jc)
        out = []
        for i in range(dim):
            acc = None
            for j in range(dim):
                term = vc[j] * wc[i].partial(j) - wc[j] * vc[i].partial(j)
                acc = term if acc is None else acc + term
            out.append(acc)
        return out

    return fn


def metric_gradient(metric: MetricField, scalar: ScalarField, dim: int) -> VectorField:
    """Gradient field of a scalar with respect to a Riemannian metric.

    ``dh`` is one jet order lower than the coordinates.  Order-1 jets thus
    give an order-0 gradient, solved on metric values (``solve_spd_values``,
    bitwise the jet solve's values); order 2 keeps the jet LU, whose result
    carries first derivatives.  The metric always sees the given jets: some
    metrics need order-1 coordinates.
    """

    def fn(jc: Sequence[Jet]) -> list[Jet]:
        h = scalar(jc)
        if h.order == 1:
            x = solve_spd_values(metric_matrix(metric, jc), h.grad)
            return [Jet(x[:, i], None, None) for i in range(dim)]
        dh = [h.partial(i) for i in range(dim)]
        return solve_spd_jet(metric(jc), dh)

    return fn


# ----------------------------------------------------------------------
# evaluation helpers


def form_matrix(form: KForm, jet_coords: Sequence[Jet]) -> Array:
    """Antisymmetric value matrix (n, d, d) of a 2-form at seeded jets."""
    if form.degree != 2:
        raise DimensionMismatch(f"matrix representation needs a 2-form, got degree {form.degree}")
    n = jet_coords[0].n
    d = form.dim
    out = np.zeros((n, d, d))
    for (i, j), c in form.coefficients(jet_coords).items():
        out[:, i, j] += c.value
        out[:, j, i] -= c.value
    return out


def metric_matrix(metric: MetricField, jet_coords: Sequence[Jet]) -> Array:
    g = metric(jet_coords)
    d = len(g)
    n = jet_coords[0].n
    out = np.empty((n, d, d))
    for i in range(d):
        for j in range(d):
            out[:, i, j] = g[i][j].value
    return out


def field_values(v: VectorField, jet_coords: Sequence[Jet]) -> Array:
    comps = v(jet_coords)
    return np.stack([c.value for c in comps], axis=1)


def coeff_residual(a: Coeffs, b: Coeffs) -> Array:
    """Pointwise max abs difference between two coefficient dicts."""
    keys = set(a) | set(b)
    if not keys:
        return np.zeros(1)
    res = None
    for k in keys:
        if k in a and k in b:
            diff = np.abs(a[k].value - b[k].value)
        elif k in a:
            diff = np.abs(a[k].value)
        else:
            diff = np.abs(b[k].value)
        res = diff if res is None else np.maximum(res, diff)
    return res


def scale_form(form: KForm, factor: float) -> KForm:
    def fn(jc: Sequence[Jet]) -> Coeffs:
        return {k: c * factor for k, c in form.coefficients(jc).items()}

    return KForm(form.degree, form.dim, fn)


def add_forms(a: KForm, b: KForm) -> KForm:
    if a.degree != b.degree or a.dim != b.dim:
        raise DimensionMismatch("can only add forms of equal degree and dimension")

    def fn(jc: Sequence[Jet]) -> Coeffs:
        out = dict(a.coefficients(jc))
        for idx, c in b.coefficients(jc).items():
            _acc(out, idx, c, 1)
        return out

    return KForm(a.degree, a.dim, fn)


def constant_form(degree: int, dim: int, entries: dict[tuple[int, ...], float]) -> KForm:
    def fn(jc: Sequence[Jet]) -> Coeffs:
        anchor = jc[0]
        return {idx: J.constant(v, anchor) for idx, v in entries.items()}

    return KForm(degree, dim, fn)
