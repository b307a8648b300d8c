"""Linear algebra over jets and over batched point values.

Jet-valued matrices are plain nested lists of :class:`~hamflow.jets.Jet`.
The solver below is LU without pivoting, which is backward stable for the
symmetric positive definite matrices it is used on (metrics); a non-positive
pivot raises :class:`~hamflow.errors.SingularMetric` instead of silently
continuing.

Value-level helpers (the nondegeneracy floor, read off the determinant, and
the linear-algebra polar construction of a compatible almost complex
structure) operate on numpy stacks of shape ``(n, d, d)`` so whole sample
batches are processed at once.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateForm, DimensionMismatch, SingularMetric
from .jets import Jet

Array = np.ndarray

# scale-free floor for the normalized |Pfaffian| = sqrt|det| of a nondegenerate 2-form
NONDEGENERACY_FLOOR = 1e-6


def solve_spd_jet(mat: list[list[Jet]], rhs: list[Jet]) -> list[Jet]:
    """Solve ``mat @ x = rhs`` for a symmetric positive definite jet matrix."""
    d = len(mat)
    a = [row[:] for row in mat]
    b = rhs[:]
    for k in range(d):
        piv = a[k][k]
        if np.any(piv.value < 1e-14):  # non-positive or tiny; NaN passes
            raise SingularMetric(f"non-positive pivot at elimination step {k}")
        for i in range(k + 1, d):
            factor = a[i][k] / piv
            for j in range(k + 1, d):
                a[i][j] = a[i][j] - factor * a[k][j]
            b[i] = b[i] - factor * b[k]
    x: list[Jet | None] = [None] * d
    for i in range(d - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, d):
            acc = acc - a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x  # type: ignore[return-value]


def solve_spd_values(mat: Array, rhs: Array) -> Array:
    """:func:`solve_spd_jet` on value stacks ``(n, d, d)`` and ``(n, d)``.

    Each entry sees the same pivot test and the same operations in the same
    order as in the jet solve, so the values agree bitwise.
    """
    a = np.array(mat, dtype=float)
    b = np.array(rhs, dtype=float)
    d = a.shape[-1]
    for k in range(d):
        piv = a[:, k, k]
        if (piv < 1e-14).any():
            raise SingularMetric(f"non-positive pivot at elimination step {k}")
        factor = a[:, k + 1 :, k] * (1.0 / piv)[:, None]
        a[:, k + 1 :, k + 1 :] -= factor[:, :, None] * a[:, k, None, k + 1 :]
        b[:, k + 1 :] -= factor * b[:, k, None]
    for i in range(d - 1, -1, -1):  # b[:, j] holds x_j for j > i
        acc = b[:, i]
        for j in range(i + 1, d):
            acc = acc - a[:, i, j] * b[:, j]
        b[:, i] = acc * (1.0 / a[:, i, i])
    return b


def congruence(jac: Array, m: Array) -> Array:
    """Jᵀ M J per row, for ``m`` of shape ``(..., t, t)`` and ``jac`` of ``(..., t, a)`` with as many axes.

    ``jac``'s leading axes broadcast against ``m``'s: ``(k, 1, t, a)`` gives
    each of k blocks of rows one constant Jacobian, with no broadcast copy.
    Bitwise the unoptimised three-operand einsum ``nji,njk,nkl->nil`` of
    ``(jac, m, jac)`` on C-ordered stacks: each product ``(jac[t,a] *
    m[t,u]) * jac[u,b]`` is formed in one reused buffer and added to a zeroed
    result one at a time in t-major order, as the einsum does, with no
    (t, u, a, a, rows) temporary.  ``jac.T @ m @ jac``, u-major order or a
    pairwise sum each move the last bits.  The row axes sit innermost, so each
    step works on contiguous rows.  Like the einsum, it stays silent on
    non-finite products.
    """
    j = np.ascontiguousarray(np.moveaxis(jac, (-2, -1), (0, 1)))  # (t, a, ...)
    mm = np.ascontiguousarray(np.moveaxis(m, (-2, -1), (0, 1)))  # (t, u, ...)
    t, a = j.shape[:2]
    out = np.zeros((a, a, *np.broadcast_shapes(j.shape[2:], mm.shape[2:])))
    left, prod = np.empty((a, 1, *out.shape[2:])), np.empty_like(out)
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(t):
            for u in range(t):
                np.multiply(j[i, :, None], mm[i, u], out=left)
                np.multiply(left, j[u, None, :], out=prod)
                out += prod
    return np.ascontiguousarray(np.moveaxis(out, (0, 1), (-2, -1)))


def nondegenerate(omega_mats: Array) -> tuple[bool, float]:
    """Whether a batch of 2-form matrices is uniformly nondegenerate.

    Returns ``(ok, worst)`` where ``worst`` is the smallest normalized
    |Pfaffian| over the batch and ``ok`` says it exceeds
    NONDEGENERACY_FLOOR.  |Pf| is read off the determinant as sqrt|det|,
    since Pf² = det for an antisymmetric matrix.  Normalization divides by
    ``norm^(d/2)`` with ``norm`` the mean Frobenius scale, so the floor is
    scale-free; it is floored at 1e-300 after the power, which underflows
    for a tiny scale, so an all-zero matrix reads ``worst == 0.0`` and a
    non-finite one NaN, and both fail.  An odd dimension raises DimensionMismatch.
    """
    m = np.asarray(omega_mats, dtype=float)
    if m.ndim == 2:
        m = m[None, :, :]
    d = m.shape[-1]
    if d % 2 == 1:
        raise DimensionMismatch(f"a nondegenerate 2-form needs an even dimension, got {d}")
    denominator = np.maximum(np.sqrt((m**2).sum(axis=(1, 2)) / d) ** (d / 2), 1e-300)
    with np.errstate(invalid="ignore"):  # a non-finite matrix gives NaN, which fails the floor
        normalized = np.sqrt(np.abs(np.linalg.det(m))) / denominator
    worst = float(normalized.min())
    return worst > NONDEGENERACY_FLOOR, worst


def spd_sqrt_and_inv_sqrt(mats: Array) -> tuple[Array, Array]:
    """Batched SPD square root and inverse square root via eigh."""
    w, v = np.linalg.eigh(mats)
    if np.any(w <= 0):
        raise SingularMetric("matrix not positive definite in square-root construction")
    sq = (v * np.sqrt(w)[:, None, :]) @ np.swapaxes(v, 1, 2)
    isq = (v / np.sqrt(w)[:, None, :]) @ np.swapaxes(v, 1, 2)
    return sq, isq


def compatible_structure(omega_mats: Array, metric_mats: Array) -> Array:
    """Pointwise almost complex structure compatible with a 2-form and metric.

    Computes A = -G^{-1} Omega and returns its polar unitary factor taken in
    the metric inner product: J = A (sqrt(A^T_g A))^{-1}.  For matrices coming
    from an exactly compatible pair this returns A itself; in general J
    squares to -identity and is orthogonal for G.

    Raises DegenerateForm if Omega is numerically singular.
    """
    om = np.asarray(omega_mats, dtype=float)
    gm = np.asarray(metric_mats, dtype=float)
    if om.ndim == 2:
        om = om[None, :, :]
    if gm.ndim == 2:
        gm = gm[None, :, :]
    if om.shape != gm.shape:
        raise DimensionMismatch(
            f"form and metric stacks differ in shape: {om.shape} vs {gm.shape}"
        )
    sv = np.linalg.svd(om, compute_uv=False)
    scale = np.maximum(sv[:, 0], 1e-300)
    if np.any(sv[:, -1] / scale < 1e-10):
        raise DegenerateForm("2-form numerically degenerate; no compatible structure")
    g_sq, g_isq = spd_sqrt_and_inv_sqrt(gm)
    a = -np.linalg.solve(gm, om)
    # conjugate into the g-orthonormal frame, where A becomes skew
    b = g_sq @ a @ g_isq
    m = np.swapaxes(b, 1, 2) @ b
    _, m_isq = spd_sqrt_and_inv_sqrt(m)
    j_frame = b @ m_isq
    return g_isq @ j_frame @ g_sq
