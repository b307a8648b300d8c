"""Independent numerical oracles used to cross-check the package.

Everything here works on plain float callables with central finite
differences, or on plain Python lists, deliberately sharing no code with
the package it checks.  The exceptions are the point-cloud oracles, which
take each pair's distance from ``Chart.distance`` over the whole distance
matrix at once, :func:`merged_groups`, which asks ``Chart.distance``, the
model's transitions and its moment Hessians one pair at a time, the
reference integrator, which evaluates the model's
own fields and returns a ``flow.FlowResult``, :func:`fixed_points_by_draw`,
the per-draw fixed-point loop that groups and classifies through
:mod:`hamflow.critical`, :func:`pulled_back`, which
states a pullback through a map in the package's coefficient-level terms,
:func:`per_angle_invariance`, the invariance check's earlier loop over the
verifier's own fields, and :func:`stabilizer_order`, which applies the
chart's own action map.  :func:`jet_action` is the circle action as the
package ran it on jets before it read the action off the weight table as
matrices, kept as the reference that ``ChartData.action_map`` is pinned to.
:func:`pfaffian` is the closed-form Pfaffian the package took the
nondegeneracy floor from before it read |Pf| off the determinant, kept as
the reference that ``linalg.nondegenerate`` is pinned to.
:func:`sample_boundary_per_batch` and :func:`bisect_boundary_80` are the
boundary sampler as it ran before it pooled a request's ray crossings into
one bisection that stops at the brackets' fixed point: each ray batch
bisected on its own, always 80 halvings; ``chart.sample_boundary`` and
``chart._bisect_boundary`` are pinned to them bitwise.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import combinations, permutations
from typing import Callable

import numpy as np

from hamflow import critical, jets, verifier
from hamflow.chart import Chart, SmoothMap, holds, sample_domain
from hamflow.errors import BoundaryNotFound, DimensionMismatch, ImmediateExit, StiffFlow
from hamflow.flow import FlowResult
from hamflow.forms import coeff_residual, field_values, image_jacobian, image_seed, pullback_coeffs
from hamflow.jets import Jet
from hamflow.linalg import congruence

Array = np.ndarray
Scalar = Callable[[np.ndarray], float]


def fd_gradient(f: Scalar, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2 * step)
    return g


def fd_hessian(f: Scalar, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    d = x.size
    h = np.zeros((d, d))
    f0 = f(x)
    for i in range(d):
        ei = np.zeros_like(x)
        ei[i] = step
        h[i, i] = (f(x + ei) - 2 * f0 + f(x - ei)) / step**2
        for j in range(i + 1, d):
            ej = np.zeros_like(x)
            ej[j] = step
            mixed = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * step**2)
            h[i, j] = h[j, i] = mixed
    return h


def pfaffian(mats: Array) -> Array:
    """Pfaffian of a batch of antisymmetric matrices, dimensions 2, 4 or 6.

    Closed-form expansions; raises DimensionMismatch for odd or unsupported
    dimensions.
    """
    m = np.asarray(mats, dtype=float)
    if m.ndim == 2:
        m = m[None, :, :]
    d = m.shape[-1]
    if d % 2 == 1 or d < 2 or d > 6:
        raise DimensionMismatch(f"Pfaffian defined here for dimensions 2/4/6, got {d}")
    a = m
    if d == 2:
        return a[:, 0, 1]
    if d == 4:
        return (
            a[:, 0, 1] * a[:, 2, 3]
            - a[:, 0, 2] * a[:, 1, 3]
            + a[:, 0, 3] * a[:, 1, 2]
        )
    # d == 6: expansion along the first row
    def pf4(idx):
        i, j, k, l = idx
        return (
            a[:, i, j] * a[:, k, l]
            - a[:, i, k] * a[:, j, l]
            + a[:, i, l] * a[:, j, k]
        )

    return (
        a[:, 0, 1] * pf4((2, 3, 4, 5))
        - a[:, 0, 2] * pf4((1, 3, 4, 5))
        + a[:, 0, 3] * pf4((1, 2, 4, 5))
        - a[:, 0, 4] * pf4((1, 2, 3, 5))
        + a[:, 0, 5] * pf4((1, 2, 3, 4))
    )


def bisect_boundary_80(chart: Chart, inside: Array, outside: Array):
    """Bisect segment batches [inside, outside] onto the boundary zero level.

    Returns (points, ok_mask) after 80 halvings; rows whose final residual
    reaches 1e-9 are flagged out instead of raising.
    """
    a, b = inside.copy(), outside.copy()
    fa = chart.boundary(jets.seed(a, order=0)).value
    for _ in range(80):
        mid = 0.5 * (a + b)
        fm = chart.boundary(jets.seed(mid, order=0)).value
        same = (fm > 0) == (fa > 0)
        a = np.where(same[:, None], mid, a)
        fa = np.where(same, fm, fa)
        b = np.where(same[:, None], b, mid)
    mid = 0.5 * (a + b)
    ok = np.abs(chart.boundary(jets.seed(mid, order=0)).value) < 1e-9
    return mid, ok


def sample_boundary_per_batch(
    chart: Chart,
    n: int,
    rng: np.random.Generator,
    accept: Callable[[Array], Array] | None = None,
) -> Array:
    """Draw n points on the boundary zero level by ray casting, bisecting each ray batch on its own."""
    if chart.boundary is None:
        raise BoundaryNotFound(f"chart {chart.name!r} has no boundary function")
    lo = np.asarray(chart.box_lo, dtype=float)
    hi = np.asarray(chart.box_hi, dtype=float)
    span = float(np.max(hi - lo))
    step = 0.01 * span
    sides = tuple(fn for fn in chart.domain if fn is not chart.boundary)
    out: list[Array] = []
    got = 0
    failures = 0
    while got < n:
        if failures >= 1024:
            raise BoundaryNotFound(
                f"chart {chart.name!r}: {failures} consecutive rays missed the boundary"
            )
        starts = sample_domain(chart, 256, rng)
        dirs = rng.normal(size=(256, chart.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        inner = np.zeros_like(starts)
        outer = np.zeros_like(starts)
        crossed = np.zeros(256, dtype=bool)
        idx = np.flatnonzero(chart.boundary(jets.seed(starts, order=0)).value <= 0)
        pos = starts[idx]
        for done in range(0, 400, 16):
            if idx.size == 0:
                break
            k = min(16, 400 - done)
            delta = step * dirs[idx]
            block = np.empty((k + 1,) + pos.shape)
            block[0] = pos
            for s in range(k):
                block[s + 1] = block[s] + delta
            jc = jets.seed(block[1:].reshape(-1, chart.dim), order=0)
            hit = (chart.boundary(jc).value >= 0).reshape(k, -1)
            event = hit | ~holds(sides, jc, 0.0).reshape(k, -1)
            first = event.argmax(axis=0)
            cols = np.arange(idx.size)
            ended = event[first, cols]
            won = ended & hit[first, cols]
            inner[idx[won]] = block[first[won], cols[won]]
            outer[idx[won]] = block[first[won] + 1, cols[won]]
            crossed[idx[won]] = True
            idx = idx[~ended]
            pos = block[k, ~ended]
        batch_pts = np.zeros((0, chart.dim))
        if crossed.any():
            found, ok = bisect_boundary_80(chart, inner[crossed], outer[crossed])
            found = chart.wrap(found[ok])
            if accept is not None and found.shape[0]:
                found = found[np.asarray(accept(found), dtype=bool)]
            batch_pts = found
        if batch_pts.shape[0]:
            out.append(batch_pts)
            got += batch_pts.shape[0]
            failures = 0
        else:
            failures += 256
    return np.concatenate(out, axis=0)[:n]


def rotation(theta: float, a: Jet, b: Jet) -> tuple[Jet, Jet]:
    """Rotate the pair (a, b) by a fixed angle."""
    c, s = float(np.cos(theta)), float(np.sin(theta))
    return a * c - b * s, a * s + b * c


def jet_action(weights, theta: float) -> Callable[[list[Jet]], list[Jet]]:
    """The action at ``theta`` of a circle acting by ``weights``, as a map on jets.

    A key ``(i, j)`` rotates the (x_i, x_j) plane by w theta, a key ``(k,)``
    adds w theta to coordinate k; every other coordinate is fixed.
    """

    def fwd(jc):
        out = list(jc)
        for key, w in weights.items():
            if len(key) == 1:
                out[key[0]] = jc[key[0]] + w * theta
            else:
                i, j = key
                out[i], out[j] = rotation(w * theta, jc[i], jc[j])
        return out

    return fwd


def jet_action_map(cd, theta: float) -> SmoothMap:
    """:func:`jet_action` of a chart's weight table as a chart self-map, for wrapped images and jet Jacobians."""
    return SmoothMap(source=cd.chart, target=cd.chart, forward=jet_action(cd.weights, theta))


def pulled_back(m, coeffs_fn, jc):
    """Coefficients at seeded source jets ``jc`` of a target-chart form pulled back through ``m``."""
    img = m.forward(jc)
    return pullback_coeffs(coeffs_fn(image_seed(img)), img, image_jacobian(img))


def per_angle_invariance(model, config) -> "verifier.CheckResult":
    """``check_invariance`` one angle at a time, pulling omega and alpha back on jets.

    Each angle's image points get their own field evaluation, and
    :func:`hamflow.forms.pullback_coeffs` multiplies every minor of the
    constant Jacobian in, zero or not.  The check's angle blocks and value
    pullback must give the same result bytes.
    """
    t = verifier._Tally("invariance", config)
    for cd, rng in t.charts(model):
        pts = sample_domain(cd.chart, config.samples, rng)
        mask = cd.inside_margin(pts)
        if not mask.all():
            t.note(f"field comparisons on {int(mask.sum())} of {pts.shape[0]} samples inside the declared margin")
        fields = partial(verifier._invariant_fields, cd)
        order, (h0, omega0, alpha0, y0, g0) = verifier._at_lowest_order(fields, pts, 0)
        jc = jets.seed(pts, order=0)
        for k in range(1, verifier.INVARIANCE_ANGLES + 1):
            act = jet_action_map(cd, 2 * np.pi * k / verifier.INVARIANCE_ANGLES)
            jac = act.jacobian(pts[:1])[0]
            img = act.forward(jc)
            img_pts = jets.values(img)
            h1, omega1, alpha1, y1, g1 = fields(jets.seed(img_pts, order=order))
            t.update(coeff_residual(pullback_coeffs(omega1, img, jac), omega0), pts)
            t.update(np.abs(h1 - h0), pts)
            pulled = pullback_coeffs(alpha1, img, jac)
            t.update(coeff_residual(pulled, alpha0)[mask], pts[mask])
            keep = mask & cd.inside_margin(cd.chart.wrap(img_pts))
            jacs = np.broadcast_to(jac, (int(keep.sum()), *jac.shape))
            pushed = np.einsum("nij,nj->ni", jacs, y0[keep])
            t.update(np.abs(pushed - y1[keep]).max(axis=1), pts[keep])
            if g0 is not None:
                pulled = congruence(jacs, g1[keep])
                t.update(np.abs(pulled - g0[keep]).max(axis=(1, 2)), pts[keep])
    return t.result()


def frame_contact_volume(grad_f: np.ndarray, alpha: np.ndarray, dalpha: np.ndarray) -> np.ndarray:
    """alpha ^ d(alpha) on an explicit oriented orthonormal frame of ker dF, per point of a 4-chart.

    ``grad_f`` and ``alpha`` are (n, 4) value arrays, ``dalpha`` the (n, 4, 4)
    antisymmetric matrix of d(alpha).  The unit normal grad F / |grad F| is
    completed to an orthonormal basis by QR, turned so that (normal, t1, t2, t3)
    is positively oriented, and the 3-form
    sum over i and j < k of alpha_i dalpha_jk dx_i ^ dx_j ^ dx_k is evaluated on
    (t1, t2, t3) as a sum of 3 x 3 determinants of the tangent rows i, j, k.
    """
    n, d = grad_f.shape
    normal = grad_f / np.linalg.norm(grad_f, axis=1)[:, None]
    q, r = np.linalg.qr(np.concatenate([normal[:, :, None], np.broadcast_to(np.eye(d), (n, d, d))], axis=2))
    q[:, :, 0] *= np.sign(r[:, 0, 0])[:, None]
    q[np.linalg.det(q) < 0, :, -1] *= -1.0
    tangent = q[:, :, 1:]
    out = np.zeros(n)
    for i in range(d):
        for j, k in combinations([m for m in range(d) if m != i], 2):
            out += alpha[:, i] * dalpha[:, j, k] * np.linalg.det(tangent[:, [i, j, k], :])
    return out


def brute_force_decompositions(genus: int) -> list[tuple[int, int]]:
    """All (h, k) with h >= 0, k >= 1, 2h + k = 1 + genus, by exhaustion."""
    out = []
    for h in range(0, genus + 2):
        for k in range(1, 2 * genus + 3):
            if 2 * h + k == 1 + genus:
                out.append((h, k))
    return sorted(out)


def stabilizer_order(cd, point, largest: int = 200, tol: float = 1e-9) -> int:
    """The largest k <= ``largest`` whose turn by 2 pi / k moves ``point`` less
    than ``tol``, by trying every k; 0 when every k fixes the point."""
    p = np.asarray(point, dtype=float)[None, :]
    ks = np.arange(1, largest + 1)
    fixing = ks[cd.chart.distance(p, cd.action_map(2 * np.pi / ks, p)[0][:, 0]) < tol]
    return 0 if fixing.size == largest else int(fixing[-1])


def union_find_labels(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Smallest node index in each node's component, by plain union-find."""
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in edges:
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(n)]


def grid_components(mask: np.ndarray) -> int:
    """Components of a 2D boolean mask under 4-connectivity, by breadth-first flood fill."""
    seen = np.zeros_like(mask, dtype=bool)
    count = 0
    nx, ny = mask.shape
    for i in range(nx):
        for j in range(ny):
            if mask[i, j] and not seen[i, j]:
                count += 1
                q = deque([(i, j)])
                seen[i, j] = True
                while q:
                    a, b = q.popleft()
                    for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        x, y = a + da, b + db
                        if 0 <= x < nx and 0 <= y < ny and mask[x, y] and not seen[x, y]:
                            seen[x, y] = True
                            q.append((x, y))
    return count


# ----------------------------------------------------------------------
# point-cloud questions answered from the full distance matrix, every
# pair at once with no blocking


def all_distances(chart, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Periodic distance from every row of ``a`` to every row of ``b``, (len(a), len(b))."""
    return chart.distance(a[:, None, :], b[None, :, :])


def pairs_within(chart, a: np.ndarray, b: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), row-major, with ``a[i]`` closer than ``r`` to ``b[j]``."""
    return np.nonzero(all_distances(chart, a, b) < r)


def nearest_neighbour_distances(chart, sample: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance from ``sample[k]`` to its nearest row of ``pts`` other than ``pts[k]``."""
    d = all_distances(chart, sample, pts)
    k = np.arange(sample.shape[0])
    d[k, k] = np.inf
    return d.min(axis=1)


def orbit_near(chart, orbit: np.ndarray, cloud: np.ndarray, radius: float) -> bool:
    """Whether an angle of ``orbit`` without a NaN distance lies within ``radius`` of ``cloud``."""
    return any(
        not np.isnan(row).any() and row.min() < radius
        for row in all_distances(chart, orbit, cloud)
    )


def merged_groups(model, labeled: list, radius: float, flat_tol: float, value_tol: float) -> list[list[int]]:
    """Indices of ``labeled``'s ``(chart, point)`` entries, grouped one pair at a time.

    Two points join when they are closer than ``radius`` in one chart, when
    one's image under a transition whose predicate accepts it and whose
    destination contains it within 1e-6 is closer than ``radius`` to the
    other, or when both Hessians have two eigenvalues within ``flat_tol`` of
    0 and their moment values differ by less than ``value_tol``.
    """
    n = len(labeled)
    traits = []
    for ci, p in labeled:
        h = model.charts[ci].hamiltonian(jets.seed(p[None, :], order=2))
        eigs = np.linalg.eigvalsh(0.5 * (h.hess[0] + h.hess[0].T))
        traits.append((float(h.value[0]), int((np.abs(eigs) <= flat_tol).sum()) >= 2))

    def images(ci, p, cj):
        out = []
        for tr in model.transitions:
            if tr.src == ci and tr.dst == cj and tr.valid(p[None])[0]:
                q = tr.map.apply(p)[0]
                if model.charts[cj].chart.contains(q, 1e-6)[0]:
                    out.append(q)
        return out

    edges = []
    for i, j in combinations(range(n), 2):
        (ci, p), (cj, q) = labeled[i], labeled[j]
        near = [float(model.charts[cj].chart.distance(img, q)) for img in images(ci, p, cj)]
        near += [float(model.charts[ci].chart.distance(p, img)) for img in images(cj, q, ci)]
        if ci == cj:
            near.append(float(model.charts[ci].chart.distance(p, q)))
        (hi, flat_i), (hj, flat_j) = traits[i], traits[j]
        if min(near, default=np.inf) < radius or (flat_i and flat_j and abs(hi - hj) < value_tol):
            edges.append((i, j))
    groups: dict[int, list[int]] = {}
    for k, root in enumerate(union_find_labels(n, edges)):
        groups.setdefault(root, []).append(k)
    return list(groups.values())


def fixed_points_by_draw(model, seed: int = 0) -> list:
    """``critical.find_fixed_points`` one draw at a time, with its box test inline.

    Each draw is projected by zeroing every rotation plane of nonzero weight
    (a chart with a translation key of nonzero weight has no fixed point and
    stops at its first draw), kept when the chart
    contains it within 1e-6 and it lies in the box within 1e-6 (periodic
    coordinates skipped), and dropped when a scalar ``Chart.distance`` puts
    it within 1e-4 of a point kept earlier in its chart.  The kept points are
    grouped by ``critical._merge_groups`` and each group is classified at its
    first point through ``critical.hessian_data`` and an order-0 moment value.
    """
    found = []
    for ci, cd in enumerate(model.charts):
        chart = cd.chart
        free = ~np.asarray(chart.periodic)
        lo, hi = np.asarray(chart.box_lo)[free] - 1e-6, np.asarray(chart.box_hi)[free] + 1e-6
        rng = np.random.default_rng([seed, 23, ci])
        for p in sample_domain(chart, critical.FIXED_POINT_STARTS, rng):
            keys = [key for key, w in cd.weights.items() if w]
            if any(len(key) == 1 for key in keys):
                break
            q = p.copy()
            for key in keys:
                q[list(key)] = 0.0
            if not (chart.contains(q, slack=1e-6)[0] and np.all(q[free] >= lo) and np.all(q[free] <= hi)):
                continue
            if any(cj == ci and float(chart.distance(q, r)) < 1e-4 for cj, r in found):
                continue
            found.append((ci, q))
    clusters = []
    for group in critical._merge_groups(model, found):
        ci, p = group[0]
        cd = model.charts[ci]
        index, nullity, _ = critical.hessian_data(model, ci, p)
        touches = False
        if cd.chart.boundary is not None:
            level = cd.chart.boundary(jets.seed(p[None, :], order=0))
            touches = float(level.value[0]) > -critical.BOUNDARY_TOUCH_TOL
        value = float(cd.hamiltonian(jets.seed(p[None, :], order=0)).value[0])
        clusters.append(critical.CriticalCluster(ci, p, value, index, nullity, touches, len(group)))
    clusters.sort(key=lambda c: (c.value, c.chart_index, c.index))
    return clusters


def one_handle_flow(point: np.ndarray, t: float) -> np.ndarray:
    """Closed-form scaling flow of the index-zero handle block."""
    p = np.asarray(point, dtype=float)
    return np.array(
        [
            np.exp(t / 2.0) * p[0],
            np.exp(t / 2.0) * p[1],
            np.exp(2.0 * t) * p[2],
            np.exp(-t) * p[3],
        ]
    )


def rk4_endpoint(vel: Callable[[np.ndarray], np.ndarray], start, total_time: float, steps: int) -> np.ndarray:
    """End point of ``steps`` fixed classical fourth-order steps of ``vel``."""
    p = np.asarray(start, dtype=float).copy()
    h = total_time / steps
    for _ in range(steps):
        k1 = vel(p)
        k2 = vel(p + 0.5 * h * k1)
        k3 = vel(p + 0.5 * h * k2)
        k4 = vel(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return p


# ----------------------------------------------------------------------
# plain (value, grad, hess) triples: the textbook route for jet arithmetic
# with a constant operand, which lifts the constant to zero derivatives


def lift_constant(c, like: tuple) -> tuple:
    """A constant as a triple shaped like ``like``, with zero derivatives."""
    v, g, h = like
    cv = np.broadcast_to(np.asarray(c, dtype=float), v.shape).copy()
    return (cv, None if g is None else np.zeros_like(g), None if h is None else np.zeros_like(h))


def _both(f, a, b):
    return None if a is None or b is None else f(a, b)


def triple_add(a: tuple, b: tuple) -> tuple:
    return (a[0] + b[0], _both(np.add, a[1], b[1]), _both(np.add, a[2], b[2]))


def triple_sub(a: tuple, b: tuple) -> tuple:
    return (a[0] - b[0], _both(np.subtract, a[1], b[1]), _both(np.subtract, a[2], b[2]))


def triple_mul(a: tuple, b: tuple) -> tuple:
    """Product rule to second order."""
    (av, ag, ah), (bv, bg, bh) = a, b
    grad = hess = None
    if ag is not None and bg is not None:
        grad = ag * bv[:, None] + bg * av[:, None]
        if ah is not None and bh is not None:
            cross = ag[:, :, None] * bg[:, None, :]
            hess = ah * bv[:, None, None] + bh * av[:, None, None] + cross + np.swapaxes(cross, 1, 2)
    return (av * bv, grad, hess)


def triple_reciprocal(a: tuple) -> tuple:
    """Chain rule for 1/u to second order."""
    v, g, h = a
    fp, fpp = -1.0 / v**2, 2.0 / v**3
    grad = hess = None
    if g is not None:
        grad = fp[:, None] * g
        if h is not None:
            hess = fp[:, None, None] * h + fpp[:, None, None] * (g[:, :, None] * g[:, None, :])
    return (1.0 / v, grad, hess)


def triple_div(a: tuple, b: tuple) -> tuple:
    """Quotient rule, as the product with the reciprocal of ``b``."""
    return triple_mul(a, triple_reciprocal(b))


# ----------------------------------------------------------------------
# polynomial forms and fields, differentiated by hand


def poly_value(terms: list, pts: np.ndarray) -> np.ndarray:
    """Value of sum(coef * prod x_i**e_i) over ``terms`` = [(coef, exps)] at (n, d) points."""
    out = np.zeros(pts.shape[0])
    for coef, exps in terms:
        out = out + coef * np.prod(pts ** np.asarray(exps, dtype=float), axis=1)
    return out


def poly_partial(terms: list, j: int) -> list:
    """Terms of the x_j partial of a polynomial."""
    out = []
    for coef, exps in terms:
        if exps[j]:
            lowered = list(exps)
            lowered[j] -= 1
            out.append((coef * exps[j], tuple(lowered)))
    return out


def lie_derivative_poly_form(field: list, form: dict, dim: int, pts: np.ndarray) -> dict:
    """Coefficients of L_v of a polynomial form, by the tensor formula.

    ``field`` holds one polynomial per component and ``form`` maps sorted
    index tuples to polynomials.  Uses
    (L_v w)_a = v^j d_j w_a + sum_m w_(a with a_m -> j) d_(a_m) v^j on the
    full antisymmetric coefficient tensor.
    """
    k = len(next(iter(form)))
    n = pts.shape[0]

    def full(coeffs_at):
        t = np.zeros((n,) + (dim,) * k)
        for idx, vals in coeffs_at.items():
            for perm in permutations(range(k)):
                inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
                sign = -1.0 if inversions % 2 else 1.0
                t[(slice(None),) + tuple(idx[p] for p in perm)] += sign * vals
        return t

    w = full({idx: poly_value(p, pts) for idx, p in form.items()})
    dw = [full({idx: poly_value(poly_partial(p, j), pts) for idx, p in form.items()}) for j in range(dim)]
    v = [poly_value(p, pts) for p in field]
    dv = [[poly_value(poly_partial(field[j], i), pts) for j in range(dim)] for i in range(dim)]
    out = {}
    for a in combinations(range(dim), k):
        acc = sum(v[j] * dw[j][(slice(None),) + a] for j in range(dim))
        for m in range(k):
            for j in range(dim):
                b = a[:m] + (j,) + a[m + 1 :]
                acc = acc + w[(slice(None),) + b] * dv[a[m]][j]
        out[a] = acc
    return out



def reference_seed(points: np.ndarray, order: int) -> list[tuple]:
    """Coordinate jets at ``points`` as (value, grad, hess) triples, each array built on its own."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    out = []
    for j in range(d):
        grad = hess = None
        if order >= 1:
            grad = np.zeros((n, d))
            grad[:, j] = 1.0
        if order >= 2:
            hess = np.zeros((n, d, d))
        out.append((pts[:, j].copy(), grad, hess))
    return out

# ----------------------------------------------------------------------
# the adaptive RK4 integrator the Dormand-Prince stepper replaced: step
# doubling to 1e-9 relative to the point's size, and a boundary hit found by
# bisecting the step time with fresh RK4 steps.  It drives the model through
# its public API, one gradient row at a time (a batched row is bitwise its
# one-row value), and returns a ``flow.FlowResult``.


def reference_integrate(model, ci: int, start, direction: int = 1, max_time: float = 60.0):
    grads = {}
    sent = 0

    def velocity(c: int, q: np.ndarray) -> np.ndarray:
        nonlocal sent
        sent += 1
        grad = grads.setdefault(c, model.charts[c].gradient_field())
        return direction * field_values(grad, jets.seed(q[None, :], order=1))[0]

    def rk4(c: int, q: np.ndarray, h: float, k1: np.ndarray) -> np.ndarray:
        k2 = velocity(c, q + 0.5 * h * k1)
        k3 = velocity(c, q + 0.5 * h * k2)
        k4 = velocity(c, q + h * k3)
        return q + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def boundary(cd, q: np.ndarray) -> float:
        return float(cd.chart.boundary(jets.seed(q[None, :], order=0)).value[0])

    def h_at(cd, q: np.ndarray) -> float:
        return float(cd.hamiltonian(jets.seed(q[None, :], order=0)).value[0])

    cd = model.charts[ci]
    p = cd.chart.wrap(np.asarray(start, dtype=float))
    k1 = None
    if cd.chart.boundary is not None and boundary(cd, p) > -1e-9:
        df = cd.chart.boundary(jets.seed(p[None, :], order=1)).grad[0]
        k1 = velocity(ci, p)
        if float(df @ k1) >= -1e-8:
            raise ImmediateExit("start on the boundary with outward or grazing initial velocity")

    times, pts, charts, hs = [0.0], [p.copy()], [ci], [h_at(cd, p)]
    t, h = 0.0, 1e-3
    monotone = True
    termination = "max_steps"
    rejected = bisections = switches = 0
    for _ in range(40000):
        if t >= max_time:
            termination = "max_time"
            break
        h = min(h, max_time - t)
        if k1 is None:
            k1 = velocity(ci, p)
        while True:
            full = rk4(ci, p, h, k1)
            mid_p = rk4(ci, p, 0.5 * h, k1)
            half = rk4(ci, mid_p, 0.5 * h, velocity(ci, mid_p))
            err = np.abs(full - half).max()
            if err <= 1e-9 * (1.0 + np.abs(p).max()):
                break
            h *= 0.5
            rejected += 1
            if h < 1e-12:
                raise StiffFlow("step size collapsed below 1e-12")
        p_new = half
        crossed = False
        if cd.chart.boundary is not None and boundary(cd, p_new) > 0.0:
            lo_t, hi_t = 0.0, h
            for _ in range(80):
                bisections += 1
                mid = 0.5 * (lo_t + hi_t)
                if boundary(cd, rk4(ci, p, mid, k1)) > 0.0:
                    hi_t = mid
                else:
                    lo_t = mid
                if hi_t - lo_t < 1e-16:
                    break
            p_new = rk4(ci, p, lo_t, k1)
            if abs(boundary(cd, p_new)) > 1e-10:
                q = rk4(ci, p, hi_t, k1)
                if abs(boundary(cd, q)) < abs(boundary(cd, p_new)):
                    p_new = q
            t += lo_t
            crossed = True
        else:
            t += h
            if err < 1e-9 / 64.0:
                h *= 2.0
        p_new = cd.chart.wrap(p_new)
        h_new = h_at(cd, p_new)
        gain = direction * (h_new - hs[-1])
        if gain < -1e-12:
            monotone = False
        times.append(t)
        pts.append(p_new.copy())
        charts.append(ci)
        hs.append(h_new)
        if crossed:
            termination = "boundary"
            break
        k1 = velocity(ci, p_new)
        if float(np.abs(k1).max()) < 1e-7 and abs(gain) < 1e-14:
            termination = "critical_set"
            break
        p = p_new
        if not cd.chart.contains(p, slack=1e-12)[0]:
            hit = next(model.transfers(ci, p[None], 1e-9), None)
            if hit is None:
                termination = "exited_chart"
                break
            tr, _, (p,) = hit
            ci = tr.dst
            cd = model.charts[ci]
            k1 = None
            pts[-1] = p.copy()
            charts[-1] = ci
            switches += 1

    return FlowResult(
        times=np.array(times),
        points=np.array(pts),
        chart_indices=charts,
        termination=termination,
        h_values=np.array(hs),
        monotone=monotone,
        direction=direction,
        accepted_steps=len(times) - 1,
        rejected_steps=rejected,
        velocity_evals=sent,
        bisections=bisections,
        chart_switches=switches,
    )
