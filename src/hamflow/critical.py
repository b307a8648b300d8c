"""Critical sets, Morse data, and global extremum structure of chart models.

Fixed points of the circle action coincide with critical points of the
moment map.  Every chart's action is linear, read off its weight table, so
its fixed set is a coordinate subspace (empty when a translation moves
every point).  When the rotation planes of nonzero weight cover every
coordinate, the fixed set is the origin, an isolated point that needs no
draw; otherwise a batch of seeded domain draws is projected onto it
exactly, by zeroing each such plane, and the projections the chart
contains are kept.  Points are merged into clusters by one linking rule,
:func:`_links`: within a radius in one
chart, or across a transition (``HamiltonianModel.transfers``) within a
radius of the image; points whose Hessian carries a null plane also merge
by level value (samples scattered along one critical surface all belong to
the same stratum, which has constant moment value).
Each cluster is classified by the eigenvalues of the moment Hessian: the
index counts negative directions, the nullity counts flat ones (0 for
isolated points, 2 for fixed surfaces).  One order-2 evaluation of the
moment map per batch, :func:`_morse`, gives the values, gradient norms and
eigenvalues that the grouping, the classification and :func:`hessian_data` read.

Gradient ascent and descent from random interior starts reveal the global
structure: which extrema are interior, which sit on the boundary, and
whether both signs of the moment map appear there.  Boundary connectivity
is estimated from boundary samples linked by the same rule, at an adaptive
radius per chart scaled to the sample density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow, jets
from .chart import _components, sample_domain
from .errors import NotCritical
from .model import ChartData, HamiltonianModel

Array = np.ndarray

NULL_TOL = 1e-8
CLUSTER_RADIUS = 0.25
SURFACE_VALUE_TOL = 1e-6
BOUNDARY_TOUCH_TOL = 1e-3
# domain draws per chart projected onto its fixed set in find_fixed_points
FIXED_POINT_STARTS = 40


@dataclass
class CriticalCluster:
    """One critical stratum: representative point plus Morse data.

    ``members`` is summed over the charts merged into the stratum: 1 for a
    chart whose fixed set is its origin, an isolated point, and the number
    of in-domain projections of seeded domain draws for a chart whose fixed
    set is a surface.
    """

    chart_index: int
    point: Array
    value: float
    index: int
    nullity: int
    touches_boundary: bool
    members: int


@dataclass
class ExtremaReport:
    """Where gradient ascent and descent end up, aggregated over starts."""

    interior_max_clusters: int
    interior_min_clusters: int
    max_value: float
    min_value: float
    max_on_boundary: bool
    min_on_boundary: bool
    portrait_both_signs: bool
    legendrian_consistent: bool
    unresolved: int


def _morse(cd: ChartData, pts: Array) -> tuple[Array, Array, Array]:
    """Moment values, gradient norms and symmetrized-Hessian eigenvalues at a point batch.

    All three come from one order-2 evaluation of the moment map.
    """
    hj = cd.hamiltonian(jets.seed(pts, order=2))
    eigs = np.linalg.eigvalsh(0.5 * (hj.hess + hj.hess.transpose(0, 2, 1)))
    return hj.value, np.linalg.norm(hj.grad, axis=1), eigs


def _morse_type(grad_norm: float, eigs: Array) -> tuple[int, int]:
    """Index and nullity (eigenvalues within NULL_TOL of 0) from one point's :func:`_morse` data.

    A gradient norm above 1e-6 raises NotCritical.
    """
    if grad_norm > 1e-6:
        raise NotCritical(f"moment differential has norm {grad_norm:.3e} at the given point")
    return int((eigs < -NULL_TOL).sum()), int((np.abs(eigs) <= NULL_TOL).sum())


def hessian_data(model: HamiltonianModel, chart_index: int, point: Array) -> tuple[int, int, Array]:
    """Index, nullity and eigenvalues of the moment Hessian at a critical point."""
    _, grad_norm, eigs = _morse(model.charts[chart_index], np.asarray(point, dtype=float)[None, :])
    return (*_morse_type(grad_norm[0], eigs[0]), eigs[0])


# ----------------------------------------------------------------------
# linking point clouds within and across charts, and clustering fixed points


def _pairs_within(chart, a: Array, b: Array, r: float) -> tuple[Array, Array]:
    """Index pairs (i, j), row-major, with ``a[i]`` closer than ``r`` to ``b[j]``.

    The distance sweep is pruned at ``r`` and visits the rows sorted along
    one coordinate, so the pairs it keeps are put back in row-major order.
    Either cloud may be empty.
    """
    rows = [np.empty(0, dtype=np.intp)]
    cols = [np.empty(0, dtype=np.intp)]
    for ia, ib, s in chart.squared_distance_blocks(a, b, r):
        k, l = np.nonzero(s < r * r)
        rows.append(ia[k])
        cols.append(ib[l])
    i, j = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((j, i))
    return i[order], j[order]


def _links(
    model: HamiltonianModel, clouds: dict[int, Array], radius: dict[int, float]
) -> tuple[Array, Array]:
    """Edges ``(src, dst)`` between the rows of per-chart point clouds.

    Rows are numbered through ``clouds`` in its order.  Two rows of one chart
    link closer than that chart's radius.  A row crosses to another cloud's
    chart through :meth:`HamiltonianModel.transfers` (slack 1e-6), and its
    image links to that chart's rows closer than the larger of the two radii.
    """
    offsets = dict(zip(clouds, np.cumsum([0] + [pts.shape[0] for pts in clouds.values()])))
    src, dst = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for ci, pts in clouds.items():
        i, j = _pairs_within(model.charts[ci].chart, pts, pts, radius[ci])
        src.append(offsets[ci] + i)
        dst.append(offsets[ci] + j)
        for tr, rows, images in model.transfers(ci, pts, 1e-6):
            if tr.dst not in clouds:
                continue
            link_r = max(radius[ci], radius[tr.dst])
            i, j = _pairs_within(model.charts[tr.dst].chart, images, clouds[tr.dst], link_r)
            src.append(offsets[ci] + rows[i])
            dst.append(offsets[tr.dst] + j)
    return np.concatenate(src), np.concatenate(dst)


def _merge_groups(
    model: HamiltonianModel, labeled: list[tuple[int, Array]]
) -> list[list[tuple[int, Array]]]:
    """Group points that :func:`_links` joins at CLUSTER_RADIUS.

    Points on null planes (two Hessian eigenvalues within 1e-5 of zero) whose
    moment values differ by less than SURFACE_VALUE_TOL also group together.
    Groups come in the order of their first point, and each keeps input order.
    """
    if not labeled:
        return []
    charts = sorted({ci for ci, _ in labeled})
    clouds = {ci: np.array([p for cj, p in labeled if cj == ci]) for ci in charts}
    rows = np.array([k for ci in charts for k, (cj, _) in enumerate(labeled) if cj == ci])
    src, dst = _links(model, clouds, dict.fromkeys(clouds, CLUSTER_RADIUS))
    morse = [_morse(model.charts[ci], pts) for ci, pts in clouds.items()]
    h = np.concatenate([values for values, _, _ in morse])
    f = np.concatenate([(np.abs(eigs) <= 1e-5).sum(axis=1) >= 2 for _, _, eigs in morse])
    i, j = np.nonzero(f[:, None] & f[None, :] & (np.abs(h[:, None] - h[None, :]) < SURFACE_VALUE_TOL))
    labels = _components(len(labeled), rows[np.concatenate([src, i])], rows[np.concatenate([dst, j])])
    groups: dict[int, list[tuple[int, Array]]] = {}
    for k, root in enumerate(labels):
        groups.setdefault(int(root), []).append(labeled[k])
    return list(groups.values())


def find_fixed_points(model: HamiltonianModel, seed: int = 0) -> list[CriticalCluster]:
    """Locate and classify the fixed points of the circle action.

    Each chart's table is read once: a translation leaves the chart no fixed
    set, and every other moving key is a rotation plane to zero.  When the
    planes cover every coordinate, the fixed set is the origin, tested as
    it is.  Otherwise the chart's FIXED_POINT_STARTS seeded domain draws are
    projected onto the fixed set as one batch.  Either way the points the
    chart contains within 1e-6 are kept.
    """
    found: list[tuple[int, Array]] = []
    for ci, cd in enumerate(model.charts):
        moving = [key for key, w in cd.weights.items() if w]
        if any(len(key) == 1 for key in moving):
            continue
        zeroed = [k for key in moving for k in key]
        if len(set(zeroed)) == cd.chart.dim:
            pts = np.zeros((1, cd.chart.dim))
        else:
            pts = sample_domain(cd.chart, FIXED_POINT_STARTS, np.random.default_rng([seed, 23, ci]))
            pts[:, zeroed] = 0.0
        found += [(ci, p) for p in pts[cd.chart.contains(pts, slack=1e-6)]]
    clusters = []
    for group in _merge_groups(model, found):
        ci, p = group[0]
        cd = model.charts[ci]
        (value,), (grad_norm,), (eigs,) = _morse(cd, p[None, :])
        index, nullity = _morse_type(grad_norm, eigs)
        touches = cd.chart.boundary is not None and jets.value_at(cd.chart.boundary, p) > -BOUNDARY_TOUCH_TOL
        clusters.append(
            CriticalCluster(
                chart_index=ci,
                point=p,
                value=float(value),
                index=index,
                nullity=nullity,
                touches_boundary=touches,
                members=len(group),
            )
        )
    clusters.sort(key=lambda c: (c.value, c.chart_index, c.index))
    return clusters


def critical_surface_census(model: HamiltonianModel, seed: int = 0) -> int:
    """Number of distinct critical strata with a 2-dimensional null plane."""
    return sum(1 for c in find_fixed_points(model, seed=seed) if c.nullity == 2)


# ----------------------------------------------------------------------
# gradient ascent / descent structure


def extrema_analysis(model: HamiltonianModel, seed: int = 0, starts: int = 12) -> ExtremaReport:
    """Flow the moment gradient both ways and summarize where it ends.

    All starts of all charts are integrated as one batch.  The boundary
    sign portrait takes 400 samples.
    """
    interior_up: list[tuple[int, Array]] = []
    interior_down: list[tuple[int, Array]] = []
    best = (-np.inf, False)
    worst = (np.inf, False)
    unresolved = 0
    runs = []
    for ci, cd in enumerate(model.charts):
        if cd.metric is None:
            continue
        rng = np.random.default_rng([seed, 29, ci])
        pts = sample_domain(cd.chart, 4 * starts, rng)
        runs += [(ci, p, direction) for p in pts[cd.inside_margin(pts)][:starts] for direction in (1, -1)]
    for (_, _, direction), res in zip(runs, flow.integrate_many(model, runs)):
        if isinstance(res, Exception):  # ImmediateExit or StiffFlow
            unresolved += 1
            continue
        h_end = float(res.h_values[-1])
        ended_on_boundary = res.termination == "boundary"
        if res.termination == "critical_set":
            bucket = interior_up if direction == 1 else interior_down
            bucket.append((res.end_chart, res.end_point))
        elif res.termination != "boundary":
            unresolved += 1
            continue
        if direction == 1 and h_end > best[0]:
            best = (h_end, ended_on_boundary)
        if direction == -1 and h_end < worst[0]:
            worst = (h_end, ended_on_boundary)
    up_groups = _merge_groups(model, interior_up)
    down_groups = _merge_groups(model, interior_down)
    portrait = flow.boundary_sign_portrait(model, samples=400, seed=seed)
    both_signs = portrait.has_positive and portrait.has_negative
    both_on_boundary = best[1] and worst[1]
    return ExtremaReport(
        interior_max_clusters=len(up_groups),
        interior_min_clusters=len(down_groups),
        max_value=float(best[0]),
        min_value=float(worst[0]),
        max_on_boundary=best[1],
        min_on_boundary=worst[1],
        portrait_both_signs=both_signs,
        legendrian_consistent=(both_on_boundary == both_signs),
        unresolved=unresolved,
    )


# ----------------------------------------------------------------------
# boundary connectivity


def _adaptive_radius(chart, pts: Array) -> float:
    m = pts.shape[0]
    if m < 2:
        return CLUSTER_RADIUS
    sample = pts[: min(m, 400)]
    nn = np.empty(sample.shape[0])
    for ia, ib, s in chart.squared_distance_blocks(sample, pts):
        s[ia[:, None] == ib] = np.inf
        nn[ia] = np.sqrt(s.min(axis=1))
    return 3.0 * float(np.median(nn))


def boundary_connectivity(model: HamiltonianModel, seed: int = 0, samples: int = 2000) -> int:
    """Connected components of the sampled boundary, linked across charts.

    Each chart's cloud is joined at its own adaptive radius (see :func:`_links`).
    """
    bounded = sum(cd.chart.boundary is not None for cd in model.charts)
    clouds = {ci: pts for ci, _, pts in model.boundary_clouds(max(2, samples // max(bounded, 1)), seed, 31)}
    if not clouds:
        return 0
    radii = {ci: _adaptive_radius(model.charts[ci].chart, pts) for ci, pts in clouds.items()}
    total = sum(pts.shape[0] for pts in clouds.values())
    labels = _components(total, *_links(model, clouds, radii))
    return int((labels == np.arange(total)).sum())
