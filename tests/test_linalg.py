"""Jet linear algebra and pointwise matrix helpers."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamflow import jets, linalg, registry, verifier
from hamflow.chart import sample_domain
from hamflow.errors import DegenerateForm, DimensionMismatch, SingularMetric
from oracles import catalog_action_jacobians, pfaffian


def _jet_matrix_from_values(vals, like):
    return [
        [jets.constant(vals[i, j], like) for j in range(vals.shape[1])]
        for i in range(vals.shape[0])
    ]


def test_spd_solve_matches_numpy():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(4, 4))
    spd = b @ b.T + 4 * np.eye(4)
    rhs = rng.normal(size=4)
    (anchor,) = jets.seed(np.array([[0.0]]), order=2)
    mat = _jet_matrix_from_values(spd, anchor)
    rj = [jets.constant(v, anchor) for v in rhs]
    x = linalg.solve_spd_jet(mat, rj)
    expected = np.linalg.solve(spd, rhs)
    got = np.array([xi.value[0] for xi in x])
    assert np.allclose(got, expected, atol=1e-12)


def test_spd_solve_carries_derivatives():
    # solve [[1+x^2, 0], [0, 2]] v = (x, 1); v0 = x/(1+x^2), dv0/dx known
    (x,) = jets.seed(np.array([[0.6]]), order=2)
    one = jets.constant(1.0, x)
    zero = jets.constant(0.0, x)
    mat = [[one + x.sq(), zero], [zero, jets.constant(2.0, x)]]
    v = linalg.solve_spd_jet(mat, [x, one])
    x0 = 0.6
    assert v[0].value[0] == pytest.approx(x0 / (1 + x0**2), rel=1e-14)
    expected_dv = (1 - x0**2) / (1 + x0**2) ** 2
    assert v[0].grad[0, 0] == pytest.approx(expected_dv, rel=1e-12)
    assert v[1].value[0] == pytest.approx(0.5)


def test_singular_metric_raises():
    (anchor,) = jets.seed(np.array([[0.0]]), order=2)
    mat = _jet_matrix_from_values(np.diag([1.0, 0.0]), anchor)
    with pytest.raises(SingularMetric):
        linalg.solve_spd_jet(mat, [anchor, anchor])


def _jet_solve_values(mat, rhs):
    """solve_spd_jet on order-1 constant jets, as the values it returns."""
    (anchor,) = jets.seed(np.zeros((mat.shape[0], 1)), order=1)
    d = mat.shape[-1]
    jm = [[jets.constant(mat[:, i, j], anchor) for j in range(d)] for i in range(d)]
    x = linalg.solve_spd_jet(jm, [jets.constant(rhs[:, i], anchor) for i in range(d)])
    return np.stack([xi.value for xi in x], axis=1)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([1, 7]),
    st.sampled_from([2, 4]),
)
def test_value_solve_matches_jet_solve_bitwise(seed, n, d):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, d, d)) * rng.uniform(0.1, 10.0, size=(n, 1, d))
    spd = b @ np.swapaxes(b, 1, 2) + 1e-3 * np.eye(d)
    rhs = rng.normal(size=(n, d))
    got = linalg.solve_spd_values(spd, rhs)
    assert got.tobytes() == _jet_solve_values(spd, rhs).tobytes()
    assert np.allclose(got, np.linalg.solve(spd, rhs[:, :, None])[:, :, 0])


_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _layout(x, kind):
    """The same values as ``x`` in another memory layout."""
    doubled = np.repeat(x, 2, axis=0)
    if kind == "rows":  # fancy-indexed rows, as ``g1[keep]``
        return doubled[np.arange(x.shape[0]) * 2]
    if kind == "strided":
        return doubled[::2]
    if kind == "transposed":
        return np.swapaxes(np.swapaxes(x, 1, 2).copy(), 1, 2)
    if kind == "fortran":
        return np.asfortranarray(x)
    return x


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t=st.integers(min_value=1, max_value=6),
    a=st.integers(min_value=1, max_value=6),
    square=st.booleans(),
    n=st.sampled_from([0, 1, 7, 500]) | st.integers(min_value=0, max_value=40),
    layouts=st.tuples(*[st.sampled_from(["plain", "rows", "strided", "transposed", "fortran"])] * 2),
    special=st.sampled_from([0.0, 0.1, 0.5]),
    scale=st.sampled_from([1.0, 1e150, 1e-160]),
)
def test_congruence_matches_three_operand_einsum(seed, t, a, square, n, layouts, special, scale):
    """Jᵀ M J is bitwise both unoptimised einsums it replaces, in any input layout.

    The einsums see C-ordered copies, as at their call sites: their own
    summation order follows the operands' strides, so a transposed or
    Fortran-ordered metric moves their bits.  Non-finite outputs must have
    NaN where the einsums do.  One shape is left out: a single row with a
    2 x 1 Jacobian, whose lone sum the einsum groups by t (no chart is
    one-dimensional).
    """
    a = t if square else a
    assume((n, a, t) != (1, 1, 2))
    rng = np.random.default_rng(seed)
    jac = rng.normal(size=(n, t, a)) * scale
    m = rng.normal(size=(n, t, t))
    for arr in (jac, m):
        hit = rng.random(arr.shape) < special
        arr[hit] = rng.choice(_SPECIALS, size=int(hit.sum()))
    got = linalg.congruence(_layout(jac, layouts[0]), _layout(m, layouts[1]))
    for want in (
        np.einsum("nji,njk,nkl->nil", jac, m, jac),
        np.einsum("ntu,nta,nub->nab", m, jac, jac),
    ):
        assert got.shape == want.shape == (n, a, a)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


_METRIC_SPECIALS = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300])


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    blocks=st.integers(min_value=1, max_value=4),
    n=st.sampled_from([1, 2, 7, 40]),
    special=st.sampled_from([0.0, 0.0, 0.02, 0.3]),
    scale=st.sampled_from([1.0, 1.0, 1e10]),
)
def test_congruence_skip_path_matches_both_einsums(data, blocks, n, special, scale):
    """The shapes that skip zero products: K stacked action Jacobians of one
    dimension from the catalog charts as ``(K, 1, d, d)``, some with all-zero
    columns or rows, against ``(K, n, d, d)`` metrics.  NaN, ±inf and ±1e300
    metric entries fall anywhere, so also into skipped products, and a scale
    of 1e10 on the Jacobian makes a 1e300 entry overflow a product with a
    zero factor into NaN.  The result must be bitwise both einsums, with
    their NaN positions."""
    first = data.draw(st.sampled_from(catalog_action_jacobians()))
    same_dim = [j for j in catalog_action_jacobians() if j.shape == first.shape]
    jacs = np.stack([first, *(data.draw(st.sampled_from(same_dim)) for _ in range(blocks - 1))]) * scale
    d = first.shape[0]
    index = st.lists(st.integers(min_value=0, max_value=d - 1), max_size=2, unique=True)
    jacs[:, :, data.draw(index)] = 0.0
    jacs[:, data.draw(index), :] = 0.0
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = rng.normal(size=(blocks, n, d, d))
    hit = rng.random(m.shape) < special
    m[hit] = rng.choice(_METRIC_SPECIALS, size=int(hit.sum()))
    got = linalg.congruence(jacs[:, None], m).reshape(-1, d, d)
    flat_jac = np.repeat(jacs, n, axis=0)
    flat_m = m.reshape(-1, d, d)
    with np.errstate(invalid="ignore", over="ignore"):
        wants = (
            np.einsum("nji,njk,nkl->nil", flat_jac, flat_m, flat_jac),
            np.einsum("ntu,nta,nub->nab", flat_m, flat_jac, flat_jac),
        )
    for want in wants:
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("pivot", [0.0, -1.0, 1e-15])
def test_value_solve_rejects_nonpositive_or_tiny_pivot(pivot):
    mat = np.array([np.eye(3), np.diag([1.0, pivot, 1.0])])
    rhs = np.ones((2, 3))
    with pytest.raises(SingularMetric, match="step 1"):
        linalg.solve_spd_values(mat, rhs)
    with pytest.raises(SingularMetric, match="step 1"):
        _jet_solve_values(mat, rhs)


def test_value_solve_passes_nan_pivot_like_jet_solve():
    mat = np.array([[[np.nan, 0.0], [0.0, 2.0]], [[2.0, 1.0], [1.0, 2.0]]])
    rhs = np.array([[1.0, 1.0], [1.0, 0.0]])
    got = linalg.solve_spd_values(mat, rhs)
    assert np.isnan(got[0]).all()
    assert np.isfinite(got[1]).all()
    assert got.tobytes() == _jet_solve_values(mat, rhs).tobytes()


def test_pfaffian_frozen_values():
    j2 = np.array([[0.0, 5.0], [-5.0, 0.0]])
    assert pfaffian(j2)[0] == pytest.approx(5.0)
    # canonical 4x4 block form has Pfaffian 1
    j4 = np.zeros((4, 4))
    j4[0, 1] = j4[2, 3] = 1.0
    j4 -= j4.T
    assert pfaffian(j4)[0] == pytest.approx(1.0)
    j6 = np.zeros((6, 6))
    j6[0, 1], j6[2, 3], j6[4, 5] = 2.0, 3.0, 4.0
    j6 -= j6.T
    assert pfaffian(j6)[0] == pytest.approx(24.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([2, 4, 6]))
def test_pfaffian_squares_to_determinant(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    skew = a - a.T
    pf = pfaffian(skew)[0]
    det = np.linalg.det(skew)
    assert pf**2 == pytest.approx(det, rel=1e-8, abs=1e-10)


def test_nondegenerate_odd_dimension_rejected():
    for shape in [(3, 3), (2, 5, 5), (1, 1)]:
        with pytest.raises(DimensionMismatch):
            linalg.nondegenerate(np.zeros(shape))


def _pfaffian_floor(mats):
    """``nondegenerate``'s ``(ok, worst)`` with |Pf| taken from the closed-form oracle."""
    m = np.asarray(mats, dtype=float)
    if m.ndim == 2:
        m = m[None, :, :]
    d = m.shape[-1]
    denominator = np.maximum(np.sqrt((m**2).sum(axis=(1, 2)) / d) ** (d / 2), 1e-300)
    worst = float((np.abs(pfaffian(m)) / denominator).min())
    return worst > linalg.NONDEGENERACY_FLOOR, worst


def _assert_matches_pfaffian_oracle(mats):
    ok, worst = linalg.nondegenerate(mats)
    ref_ok, ref_worst = _pfaffian_floor(mats)
    assert ok == ref_ok
    assert worst == pytest.approx(ref_worst, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([2, 4, 6]),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=5), max_size=6),
)
def test_nondegenerate_matches_the_pfaffian_oracle(seed, dim, n, zeroed):
    """|Pf| read off the determinant agrees with the closed-form Pfaffian.

    Each stack holds ``n`` random antisymmetric matrices at scales from 1e-3
    to 1e3.  Both ways of computing |Pf| lose about eps times the condition
    number, so only stacks conditioned below 1e3 are drawn, where the two
    agree to 1e-12.  The coordinates in ``zeroed`` have their rows and
    columns cleared in the first matrix: a rank-deficient matrix, all zero
    when every coordinate is cleared, whose |Pf| both ways is exactly 0, so
    ``worst`` is 0 and ``ok`` false.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, dim, dim))
    m = (a - a.transpose(0, 2, 1)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1, 1))
    assume(np.linalg.cond(m).max() < 1e3)
    keep = np.ones(dim, dtype=bool)
    keep[[k for k in zeroed if k < dim]] = False
    m[0] *= np.outer(keep, keep)
    for row in m:
        _assert_matches_pfaffian_oracle(row)
    _assert_matches_pfaffian_oracle(m)


@pytest.mark.parametrize("spec", list(registry.ZOO) + sorted(verifier.CONTROLS))
def test_nondegenerate_matches_the_pfaffian_oracle_on_chart_forms(spec):
    """The symplectic check's ω matrices at seed 1 and 500 samples, on ``kernel_complement`` where declared."""
    model = verifier.CONTROLS[spec][1]() if spec in verifier.CONTROLS else registry.build(spec)
    tally = verifier._Tally("symplectic", verifier.RunConfig(seed=1, samples=500))
    for cd, rng in tally.charts(model):
        pts = sample_domain(cd.chart, 500, rng)
        _, (_, om) = verifier._at_lowest_order(partial(verifier._closedness, cd), pts, 1)
        if cd.kernel_complement is not None:
            sub = np.asarray(cd.kernel_complement)
            om = om[:, sub[:, None], sub[None, :]]
        _assert_matches_pfaffian_oracle(om)


def test_nondegenerate_flags_degenerate_form():
    omegas = np.zeros((2, 4, 4))
    omegas[0, 0, 1] = omegas[0, 2, 3] = 1.0
    omegas[0] -= omegas[0].T
    omegas[1, 0, 1] = 1.0  # rank 2 only
    omegas[1] -= omegas[1].T
    ok, worst = linalg.nondegenerate(omegas)
    assert not ok
    ok1, worst1 = linalg.nondegenerate(omegas[:1])
    assert ok1 and worst1 > 0.5


def test_nondegenerate_reads_zero_on_an_all_zero_form():
    """The normalization's power underflows at a zero scale; the floor after it keeps ``worst`` at 0, not NaN."""
    for d in (2, 4, 6):
        ok, worst = linalg.nondegenerate(np.zeros((1, d, d)))
        assert not ok and worst == 0.0
    tiny = np.zeros((2, 4, 4))
    tiny[:, 0, 1] = tiny[:, 2, 3] = [1.0, 1e-200]
    tiny -= tiny.transpose(0, 2, 1)
    assert linalg.nondegenerate(tiny) == (False, 0.0)


def test_nondegenerate_fails_a_nan_form_silently():
    """A NaN entry fails the floor with a NaN ``worst`` and no RuntimeWarning, as the Pfaffian did."""
    omegas = np.zeros((2, 4, 4))
    omegas[:, 0, 1] = omegas[:, 2, 3] = 1.0
    omegas[1, 0, 2] = np.nan
    omegas -= omegas.transpose(0, 2, 1)
    ok, worst = linalg.nondegenerate(omegas)
    assert not ok and np.isnan(worst)
    assert np.isnan(_pfaffian_floor(omegas)[1])


def test_compatible_structure_standard_pair():
    omega = np.zeros((1, 4, 4))
    omega[0, 0, 2] = omega[0, 1, 3] = 1.0
    omega[0] -= omega[0].T
    metric = np.eye(4)[None]
    j = linalg.compatible_structure(omega, metric)
    assert np.allclose(j[0] @ j[0], -np.eye(4), atol=1e-12)
    # compatibility: G = Omega J reproduces the metric
    assert np.allclose(omega[0] @ j[0], metric[0], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_compatible_structure_properties_random(seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(4, 4))
    metric = (b @ b.T + 5 * np.eye(4))[None]
    skew = rng.normal(size=(4, 4))
    omega = (skew - skew.T)[None]
    if np.abs(pfaffian(omega)[0]) < 1e-3:
        return
    j = linalg.compatible_structure(omega, metric)[0]
    assert np.allclose(j @ j, -np.eye(4), atol=1e-9)
    # J is g-orthogonal: J^T G J = G
    g = metric[0]
    assert np.allclose(j.T @ g @ j, g, atol=1e-9)
    # omega(J u, J v) = omega(u, v)
    om = omega[0]
    assert np.allclose(j.T @ om @ j, om, atol=1e-9)
    # the induced bilinear form omega(., J.) is symmetric positive definite
    induced = om @ j
    assert np.allclose(induced, induced.T, atol=1e-9)
    assert np.linalg.eigvalsh(induced).min() > 0


def test_compatible_structure_rejects_degenerate():
    omega = np.zeros((1, 4, 4))
    omega[0, 0, 1] = 1.0
    omega[0] -= omega[0].T
    with pytest.raises(DegenerateForm):
        linalg.compatible_structure(omega, np.eye(4)[None])
