"""Critical sets, Morse data, and global extremum structure of chart models.

Fixed points of the circle action coincide with critical points of the
moment map.  Every chart's action is linear, read off its weight table, so
its fixed set is a coordinate subspace (empty when a translation moves
every point): seeded domain draws are projected onto it exactly, by
zeroing each rotation plane that moves them.  Projected points are merged
into clusters three ways: by chart distance, through transition maps for
points visible from two charts, and by level value for points whose
Hessian carries a null plane (samples scattered along one critical
surface all belong to the same stratum, which has constant moment value).
Each cluster is classified by the eigenvalues of the moment Hessian: the
index counts negative directions, the nullity counts flat ones (0 for
isolated points, 2 for fixed surfaces).

Gradient ascent and descent from random interior starts reveal the global
structure: which extrema are interior, which sit on the boundary, and
whether both signs of the moment map appear there.  Boundary connectivity
is estimated from boundary samples joined at an adaptive radius scaled to
the sample density, with transition maps providing the cross-chart links.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow, jets
from .chart import _components, sample_boundary, sample_domain
from .errors import BoundaryNotFound, NotCritical
from .model import HamiltonianModel, moving_keys

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

    ``members`` counts the seeded domain draws whose projection onto a
    chart's fixed set lies in the domain, deduplicated within 1e-4 per chart
    and summed over the charts merged into the stratum.
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


def hessian_data(model: HamiltonianModel, chart_index: int, point: Array) -> tuple[int, int, Array]:
    """Index, nullity and eigenvalues of the moment Hessian at a critical point.

    Eigenvalues within NULL_TOL of zero count toward the nullity.
    """
    cd = model.charts[chart_index]
    p = np.asarray(point, dtype=float)
    hj = cd.hamiltonian(jets.seed(p[None, :], order=2))
    grad_norm = float(np.linalg.norm(hj.grad[0]))
    if grad_norm > 1e-6:
        raise NotCritical(
            f"moment differential has norm {grad_norm:.3e} at the given point"
        )
    eigs = np.linalg.eigvalsh(0.5 * (hj.hess[0] + hj.hess[0].T))
    index = int((eigs < -NULL_TOL).sum())
    nullity = int((np.abs(eigs) <= NULL_TOL).sum())
    return index, nullity, eigs


# ----------------------------------------------------------------------
# clustering fixed points across charts


def _merge_groups(
    model: HamiltonianModel, labeled: list[tuple[int, Array]]
) -> list[list[tuple[int, Array]]]:
    """Group points within CLUSTER_RADIUS, directly or through a transition.

    Points on null planes (two Hessian eigenvalues within 1e-5 of zero) at one
    moment value also group together.
    """
    n = len(labeled)
    edges: list[tuple[int, int]] = []
    # later transitions to the same chart overwrite earlier ones
    mapped = [{tr.dst: q for tr, q in model.transfers(ci, p, 1e-6)} for ci, p in labeled]
    traits = []
    for ci, p in labeled:
        h = model.charts[ci].hamiltonian(jets.seed(p[None, :], order=2))
        eigs = np.linalg.eigvalsh(0.5 * (h.hess[0] + h.hess[0].T))
        traits.append((float(h.value[0]), int((np.abs(eigs) <= 1e-5).sum()) >= 2))
    for i in range(n):
        ci, p = labeled[i]
        hi, flat_i = traits[i]
        for j in range(i + 1, n):
            cj, q = labeled[j]
            hj, flat_j = traits[j]
            d = np.inf
            if ci == cj:
                d = float(model.charts[ci].chart.distance(p, q))
            if cj in mapped[i]:
                d = min(d, float(model.charts[cj].chart.distance(mapped[i][cj], q)))
            if ci in mapped[j]:
                d = min(d, float(model.charts[ci].chart.distance(p, mapped[j][ci])))
            if d < CLUSTER_RADIUS or (flat_i and flat_j and abs(hi - hj) < SURFACE_VALUE_TOL):
                edges.append((i, j))
    src, dst = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    groups: dict[int, list[tuple[int, Array]]] = {}
    for i, root in enumerate(_components(n, src, dst)):
        groups.setdefault(int(root), []).append(labeled[i])
    return list(groups.values())


def find_fixed_points(model: HamiltonianModel, seed: int = 0) -> list[CriticalCluster]:
    """Locate and classify the fixed points of the circle action.

    Each chart's seeded domain draws are projected onto the chart's fixed
    set by zeroing every rotation plane that moves them; a chart whose
    table moves every point (a translation) has none.
    """
    found: list[tuple[int, Array]] = []
    for ci, cd in enumerate(model.charts):
        rng = np.random.default_rng([seed, 23, ci])
        for p in sample_domain(cd.chart, FIXED_POINT_STARTS, rng):
            keys = [key for key, _ in moving_keys(cd.weights, p, 0.0)]
            if any(len(key) == 1 for key in keys):
                break  # a translation moves every point of the chart
            q = p.copy()
            for key in keys:
                q[list(key)] = 0.0
            if not (cd.chart.contains(q, slack=1e-6)[0] and cd.chart.in_box(q, 1e-6)):
                continue
            if any(
                cj == ci and float(cd.chart.distance(q, r)) < 1e-4 for cj, r in found
            ):
                continue
            found.append((ci, q))
    clusters = []
    for group in _merge_groups(model, found):
        ci, p = group[0]
        cd = model.charts[ci]
        index, nullity, _ = hessian_data(model, ci, p)
        touches = False
        if cd.chart.boundary is not None:
            level = cd.chart.boundary(jets.seed(p[None, :], order=0))
            touches = float(level.value[0]) > -BOUNDARY_TOUCH_TOL
        hj = cd.hamiltonian(jets.seed(p[None, :], order=0))
        clusters.append(
            CriticalCluster(
                chart_index=ci,
                point=p,
                value=float(hj.value[0]),
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


def boundary_connectivity(model: HamiltonianModel, seed: int = 0, samples: int = 2000) -> int:
    """Connected components of the sampled boundary, linked across charts.

    Each chart's cloud is joined at its own adaptive radius.
    """
    with_boundary = [
        (ci, cd) for ci, cd in enumerate(model.charts) if cd.chart.boundary is not None
    ]
    if not with_boundary:
        return 0
    per = max(2, samples // len(with_boundary))
    clouds: dict[int, Array] = {}
    radii: dict[int, float] = {}
    for ci, cd in with_boundary:
        rng = np.random.default_rng([seed, 31, ci])
        try:
            pts = sample_boundary(cd.chart, per, rng, accept=cd.boundary_accept)
        except BoundaryNotFound:
            continue
        clouds[ci] = pts
        radii[ci] = _adaptive_radius(cd.chart, pts)
    if not clouds:
        return 0
    offsets: dict[int, int] = {}
    total = 0
    for ci, pts in clouds.items():
        offsets[ci] = total
        total += pts.shape[0]
    src: list[Array] = []
    dst: list[Array] = []
    for ci, pts in clouds.items():
        i, j = _pairs_within(model.charts[ci].chart, pts, pts, radii[ci])
        src.append(offsets[ci] + i)
        dst.append(offsets[ci] + j)
    for tr in model.transitions:
        if tr.src not in clouds or tr.dst not in clouds:
            continue
        src_pts = clouds[tr.src]
        mask = np.asarray(tr.valid(src_pts), dtype=bool)
        if not mask.any():
            continue
        imgs = tr.map.apply(src_pts[mask])
        link_r = max(radii[tr.src], radii[tr.dst])
        i, j = _pairs_within(model.charts[tr.dst].chart, imgs, clouds[tr.dst], link_r)
        src.append(np.flatnonzero(mask)[i] + offsets[tr.src])
        dst.append(offsets[tr.dst] + j)
    labels = _components(total, np.concatenate(src), np.concatenate(dst))
    return int((labels == np.arange(total)).sum())
