"""Independent numerical oracles used to cross-check the package.

Everything here works on plain float callables with central finite
differences, or on plain Python lists, deliberately sharing no code with
the package it checks.  The exceptions are the point-cloud oracles, which
take each pair's distance from ``Chart.distance`` over the whole distance
matrix at once, the reference integrator, which evaluates the model's
own fields and returns a ``flow.FlowResult``, :func:`pulled_back`, which
states a pullback through a map in the package's coefficient-level terms,
and :func:`stabilizer_order`, which applies the chart's own action maps.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations
from typing import Callable

import numpy as np

from hamflow import jets
from hamflow.errors import ImmediateExit, StiffFlow
from hamflow.flow import FlowResult
from hamflow.forms import field_values, image_seed, pullback_coeffs

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


def pulled_back(m, coeffs_fn, jc):
    """Coefficients at seeded source jets ``jc`` of a target-chart form pulled back through ``m``."""
    img = m.forward(jc)
    return pullback_coeffs(coeffs_fn(image_seed(img)), img, m.source.dim)


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
    fixing = [
        k for k in range(1, largest + 1)
        if cd.chart.distance(p, cd.action_map(2 * np.pi / k).apply(p))[0] < tol
    ]
    return 0 if len(fixing) == largest else fixing[-1]


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
        if not (cd.chart.contains(p, slack=1e-12)[0] and cd.chart.in_box(p, 1e-9)):
            hit = next(model.transfers(ci, p, 1e-9), None)
            if hit is None:
                termination = "exited_chart"
                break
            tr, p = hit
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
