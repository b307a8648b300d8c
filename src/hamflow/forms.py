"""Exterior calculus over jets, at the coefficient level.

A form of degree k on a d-dimensional chart is evaluated as a coefficient
dict: given the seeded coordinate jets of a point batch, ``{sorted index
tuple: Jet}`` for the strictly increasing multi-indices with nonzero
coefficient.  The operators work on already evaluated dicts, field
components or image jets (:func:`d_coeffs`, :func:`interior_coeffs`,
:func:`wedge_coeffs`, :func:`lie_coeffs`, :func:`lie_bracket`,
:func:`pullback_coeffs`), so every result carries whatever derivative order
its inputs support.  A caller evaluates each form once and builds d,
contractions, wedges, Lie derivatives and pullbacks from those coefficients;
one pulling several forms back through one map seeds its images once
(:func:`image_seed`) and reads its Jacobian entries once, as numbers or as
:func:`image_jacobian`; through a constant Jacobian, or a stack of them,
:func:`pullback_values` pulls back values alone.

A :class:`KForm` names a form field by its coefficient function alone; its
degree and chart dimension show in the indices it returns.  Builders
declare omega as one; any composition of forms is written as one
coefficient function over the operators above.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from . import jets as J
from .jets import Jet
from .linalg import congruence, solve_spd_jet, solve_spd_values

Array = np.ndarray
Coeffs = dict[tuple[int, ...], Jet]
VectorField = Callable[[Sequence[Jet]], list[Jet]]
MetricField = Callable[[Sequence[Jet]], list[list[Jet]]]
ScalarField = Callable[[Sequence[Jet]], Jet]


class KForm:
    """A form field, named by its coefficient function."""

    __slots__ = ("_fn",)

    def __init__(self, coeff_fn: Callable[[Sequence[Jet]], Coeffs]):
        self._fn = coeff_fn

    def coefficients(self, jet_coords: Sequence[Jet]) -> Coeffs:
        return self._fn(jet_coords)


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


def _det(rows):
    """Determinant of a square block of Jacobian entries, jets or numbers, by cofactors along row 0."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    if k == 2:  # bitwise the cofactor sum a d + (-(b c))
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = None
    for col in range(k):
        minor = [[rows[r][c] for c in range(k) if c != col] for r in range(1, k)]
        term = rows[0][col] * _det(minor)
        if col % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def compose_jet(coeff: Jet, img: Sequence[Jet]) -> Jet:
    """Chain-rule composition: a jet in target coordinates, composed with a map.

    ``coeff`` carries derivatives with respect to the target chart at the image
    points; ``img`` are the image coordinates as jets over the source chart.
    Returns the composite as a jet over the source chart, at the order both
    operands support.  The Hessian's Jᵀ H J term is
    :func:`hamflow.linalg.congruence`: products ``(H[t,u] * J[t,a]) * J[u,b]``
    added in t-major order, bitwise the unoptimised einsum
    ``ntu,nta,nub->nab``.
    """
    value = coeff.value.copy()
    grad = None
    hess = None
    if coeff.grad is not None and all(c.grad is not None for c in img):
        jac = np.stack([c.grad for c in img], axis=1)  # (n, tdim, sdim)
        grad = np.einsum("nt,nts->ns", coeff.grad, jac)
        if coeff.hess is not None and all(c.hess is not None for c in img):
            hess = congruence(jac, coeff.hess)
            for i, c in enumerate(img):
                hess = hess + coeff.grad[:, i, None, None] * c.hess
    return Jet(value, grad, hess)


def image_seed(img: Sequence[Jet]) -> list[Jet]:
    """Target-chart jets freshly seeded at a map's image points, at the images' order."""
    return J.seed(J.values(img), order=min(j.order for j in img))


def image_jacobian(img: Sequence[Jet]) -> list[list[Jet]]:
    """The Jacobian entries d img_i / d x_a of a map's image jets, as jets one order lower."""
    return [[j.partial(a) for a in range(j.dim)] for j in img]


def pullback_coeffs(coeffs: Coeffs, img: Sequence[Jet], jac: Sequence[Sequence[Jet | float]]) -> Coeffs:
    """Coefficients of the pullback of a target-chart form through a map.

    ``img`` are the map's image coordinates as jets over the source chart,
    ``coeffs`` the form's coefficients at :func:`image_seed` of them, and
    ``jac[i][a]`` is d img_i / d x_a: numbers where it is the same at every
    point (a linear action), else :func:`image_jacobian` of ``img``, one order
    lower.  Coefficients compose back by the chain rule, so pullbacks nest.
    """
    composed = {idx: compose_jet(c, img) for idx, c in coeffs.items()}
    degree = len(next(iter(coeffs), ()))
    if degree == 0:
        return composed
    out: Coeffs = {}
    for tgt_idx, c in composed.items():
        for src_idx in combinations(range(len(jac[0])), degree):
            _acc(out, src_idx, c * _det([[jac[i][a] for a in src_idx] for i in tgt_idx]), 1)
    return out


def pullback_values(values: dict[tuple[int, ...], Array], jac: Array) -> dict[tuple[int, ...], Array]:
    """:func:`pullback_coeffs` on coefficient values, through a Jacobian that is the same at every point.

    ``jac`` is ``(d, d)``, or a stack ``(k, d, d)`` that pulls ``(rows,)`` or
    ``(k, rows)`` values back as ``(k, rows)``.  Sums ``value * minor`` in
    ``values``' order, each minor formed once on the stack by :func:`_det`,
    and skips exact-zero minors: 0.0 on the Jacobians where a minor is 0, and
    no key where all its minors are.  A skipped term is ±0, or NaN for a
    non-finite value, which an invertible ``jac`` also carries into some other
    key, so a stack agrees with its Jacobians one at a time up to zero signs.
    """
    out: dict[tuple[int, ...], Array] = {}
    for tgt_idx, v in values.items():
        for src_idx in combinations(range(jac.shape[-1]), len(tgt_idx)):
            minor = _det([[jac[..., i, a] for a in src_idx] for i in tgt_idx])
            nonzero = minor != 0.0
            if not nonzero.any():
                continue
            if nonzero.all():
                term = v * minor[..., None]
            else:
                with np.errstate(invalid="ignore"):  # inf * 0 on the rows np.where drops
                    term = np.where(nonzero[..., None], v * minor[..., None], 0.0)
            out[src_idx] = out[src_idx] + term if src_idx in out else term
    return out


def lie_bracket(vc: Sequence[Jet], wc: Sequence[Jet]) -> list[Jet]:
    """Components of the commutator [v, w] from evaluated field components (one order lower)."""
    out = []
    for i in range(len(vc)):
        acc = None
        for j in range(len(vc)):
            term = vc[j] * wc[i].partial(j) - wc[j] * vc[i].partial(j)
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


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
            x = solve_spd_values(*gradient_system(metric, h, jc))
            return [Jet(x[:, i], None, None) for i in range(dim)]
        dh = [h.partial(i) for i in range(dim)]
        return solve_spd_jet(metric(jc), dh)

    return fn


def gradient_system(metric: MetricField, h: Jet, jet_coords: Sequence[Jet]) -> tuple[Array, Array]:
    """The order-1 gradient system of ``h`` at seeded jets: the metric's values ``(n, d, d)`` and dh ``(n, d)``.

    ``solve_spd_values`` solves it row by row, so the systems of several
    charts stack into one solve with every row bitwise its own.
    """
    return metric_matrix(metric, jet_coords), h.grad


# ----------------------------------------------------------------------
# evaluation helpers


def form_matrix(coeffs: Coeffs, jet_coords: Sequence[Jet]) -> Array:
    """Antisymmetric value matrix (n, d, d) of a 2-form's evaluated coefficients at seeded jets."""
    d = len(jet_coords)
    out = np.zeros((jet_coords[0].n, d, d))
    for (i, j), c in coeffs.items():
        out[:, i, j] += c.value
        out[:, j, i] -= c.value
    return out


def metric_matrix(metric: MetricField, jet_coords: Sequence[Jet]) -> Array:
    """Value matrix (n, d, d) of a metric at seeded jets: its ``values`` read where it has one
    (:func:`hamflow.model.symmetric_metric`), else its jet matrix's values, every entry read."""
    values = getattr(metric, "values", None)
    if values is not None:
        return values(jet_coords)
    g = metric(jet_coords)
    d = len(g)
    n = jet_coords[0].n
    out = np.empty((n, d, d))
    for i in range(d):
        for j in range(d):
            out[:, i, j] = g[i][j].value
    return out


def field_values(v: VectorField, jet_coords: Sequence[Jet]) -> Array:
    return J.values(v(jet_coords))


def coeff_residual(a: Coeffs, b: Coeffs) -> Array:
    """Pointwise max abs difference between two coefficient dicts, of jets or of values; a missing key reads as 0."""
    keys = set(a) | set(b)
    if not keys:
        return np.zeros(1)
    res = None
    for k in keys:
        diff = np.abs(_value(a.get(k, 0.0)) - _value(b.get(k, 0.0)))
        res = diff if res is None else np.maximum(res, diff)
    return res


def _value(c: Jet | Array) -> Array:
    return c.value if isinstance(c, Jet) else c


def constant_form(entries: dict[tuple[int, ...], float]) -> KForm:
    def fn(jc: Sequence[Jet]) -> Coeffs:
        anchor = jc[0]
        return {idx: J.constant(v, anchor) for idx, v in entries.items()}

    return KForm(fn)
