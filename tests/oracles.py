"""Independent numerical oracles used to cross-check the package.

Everything here works on plain float callables with central finite
differences, or on plain Python lists, deliberately sharing no code with
the package it checks.  The one exception is the point-cloud oracles,
which take each pair's distance from ``Chart.distance`` over the whole
distance matrix at once.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations
from typing import Callable

import numpy as np

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


def brute_force_decompositions(genus: int) -> list[tuple[int, int]]:
    """All (h, k) with h >= 0, k >= 1, 2h + k = 1 + genus, by exhaustion."""
    out = []
    for h in range(0, genus + 2):
        for k in range(1, 2 * genus + 3):
            if 2 * h + k == 1 + genus:
                out.append((h, k))
    return sorted(out)


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
