"""Gradient-flow machinery: integration, orbit types, boundary censuses.

The central object is the flow of the metric gradient of the moment map.
Trajectories are integrated chart by chart with an adaptive Dormand-Prince
5(4) stepper, written as a generator of velocity requests: many trajectories
advance in rounds, and each round makes one metric solve over all charts:
each chart's metric values (``forms.metric_matrix``) and dH are read on its
stacked rows, and one ``solve_spd_values`` call solves them all, every row
bitwise its one-row solve.  A step asks for six velocities, its first
stage being the last of the step before.  Chart crossings go through the
model's transitions, and a boundary hit is found by bisection on the step's
continuous extension, which asks for no velocity.
On top of the integrator sit classifiers: the orbit type swept by a
trajectory under the circle action, a sign portrait of the moment map on
the boundary, and a detector that finds and groups the closed zero-level
orbit sets on the boundary, filtering its candidates in batches and mapping
them around their orbits with one read of the chart's weight table
(``ChartData.action_map``).  Newton projection onto the zero set has two
routines, by input size: a batch for each chart's candidates, and a one-row
routine, bitwise the batch's steps, for the walk's one point per step.  The
finite stabilizer of a point is exact: a gcd of the weights in the chart's
table on the keys that move it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .chart import holds
from .errors import ImmediateExit, StiffFlow
from .forms import metric_matrix
from .linalg import solve_spd_values
from .model import ChartData, HamiltonianModel

Array = np.ndarray

_STEP = 0.04  # walk step of the zero-set tracer


@dataclass
class FlowResult:
    """One gradient trajectory, recorded chartwise, and counters that no pin or report reads."""

    times: Array
    points: Array
    chart_indices: list[int]
    termination: str
    h_values: Array
    monotone: bool
    direction: int
    accepted_steps: int = 0
    rejected_steps: int = 0
    velocity_evals: int = 0  # gradient rows the run was sent
    bisections: int = 0  # boundary bisection iterations on the continuous extension, no velocity each
    chart_switches: int = 0

    @property
    def end_point(self) -> Array:
        return self.points[-1]

    @property
    def end_chart(self) -> int:
        return self.chart_indices[-1]


# Dormand & Prince (1980) 5(4): rows of stages 2-7 (the 7th sits at the step's end,
# FSAL), b - b^ and the dense output's d_i (Hairer, Norsett & Wanner, ODEs I, II.5-6)
_DP_ROWS = [
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_DP_DENSE = np.array(
    [-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072]
    + [701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423]
)


def _check_start(model: HamiltonianModel, ci: int, start, direction: int) -> None:
    """Raise ValueError for a run that cannot start: a direction other than 1 or -1, a chart
    index the model lacks, a chart with no metric, a start not of the chart's dimension, or a
    wrapped start whose boundary value exceeds 1e-9 or is NaN.  No side inequality is read:
    boundary samples can lie just past a side face."""
    if direction not in (1, -1):
        raise ValueError(f"direction must be 1 or -1, got {direction!r}")
    if not 0 <= ci < len(model.charts):
        raise ValueError(f"chart index {ci!r} is not one of the model's {len(model.charts)} charts")
    chart = model.charts[ci].chart
    if model.charts[ci].metric is None:
        raise ValueError(f"chart {chart.name!r} carries no metric")
    p = np.asarray(start, dtype=float)
    if p.shape != (chart.dim,):
        raise ValueError(f"start has shape {p.shape}, chart {chart.name!r} takes {chart.dim} coordinates")
    if chart.boundary is not None and not jets.value_at(chart.boundary, chart.wrap(p)) <= 1e-9:
        raise ValueError(f"start lies outside the boundary of chart {chart.name!r}")


def _trajectory(model: HamiltonianModel, ci: int, start: Array, direction: int, max_time: float):
    """``integrate``'s stepper: yields ``(chart, point)`` per velocity, is sent the gradient."""
    cd = model.charts[ci]
    p = cd.chart.wrap(np.asarray(start, dtype=float))
    k1 = None  # velocity at the current point, once computed

    if cd.chart.boundary is not None and jets.value_at(cd.chart.boundary, p) > -1e-9:
        df = cd.chart.boundary(jets.seed(p[None, :], order=1)).grad[0]
        k1 = direction * (yield ci, p)
        if float(df @ k1) >= -1e-8:
            msg = f"start on the boundary of chart {cd.chart.name!r} with outward or grazing initial velocity"
            raise ImmediateExit(msg)

    times, pts, charts, hs = [0.0], [p.copy()], [ci], [jets.value_at(cd.hamiltonian, p)]
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
            k1 = direction * (yield ci, p)
        tol = 1e-9 * (1.0 + np.abs(p).max())
        while True:
            k = np.empty((7, p.size))
            k[0] = k1
            for i, row in enumerate(_DP_ROWS, 1):
                p_new = p + h * (row @ k[:i])
                k[i] = direction * (yield ci, p_new)
            err = h * np.abs(_DP_ERR @ k).max()
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
            if err <= tol:
                break
            h *= fac
            rejected += 1
            if h < 1e-12:
                raise StiffFlow(f"step size collapsed below 1e-12 in chart {cd.chart.name!r}")
        k1 = k[6]
        if cd.chart.boundary is not None and jets.value_at(cd.chart.boundary, p_new) > 0.0:
            # bisect theta in [0, 1] on the step's fourth-order dense output
            dy = p_new - p
            r3 = h * k[0] - dy
            r4, r5 = dy - h * k[6] - r3, h * (_DP_DENSE @ k)
            at = lambda th: p + th * (dy + (1.0 - th) * (r3 + th * (r4 + (1.0 - th) * r5)))
            lo, hi = 0.0, 1.0
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                bisections += 1
                if jets.value_at(cd.chart.boundary, at(mid)) > 0.0:
                    hi = mid
                else:
                    lo = mid
            p_new = at(lo)
            if abs(jets.value_at(cd.chart.boundary, p_new)) > 1e-10:
                q = at(hi)
                if abs(jets.value_at(cd.chart.boundary, q)) < abs(jets.value_at(cd.chart.boundary, p_new)):
                    p_new = q
            t += lo * h
            termination = "boundary"
        else:
            t += h
            h *= fac
        p_new = cd.chart.wrap(p_new)
        h_new = jets.value_at(cd.hamiltonian, p_new)
        gain = direction * (h_new - hs[-1])
        if gain < -1e-12:
            monotone = False
        times.append(t)
        pts.append(p_new.copy())
        charts.append(ci)
        hs.append(h_new)
        if termination == "boundary":
            break
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
        bisections=bisections,
        chart_switches=switches,
    )


def integrate_many(
    model: HamiltonianModel, runs: list[tuple[int, Array, int]], max_time: float = 60.0
) -> list[FlowResult | ImmediateExit | StiffFlow]:
    """Integrate all ``(chart index, start, direction)`` runs as one batch.

    In each round every live run steps to its next velocity request, and
    one metric solve over all charts answers them: each chart's order-1
    system is built on that chart's stacked rows, and the systems of all
    charts are solved as one stack.  Batched rows are bitwise one-row
    values, so each run is bit for bit its lone run.  The list returned is
    aligned with ``runs``: each run's ``FlowResult``, or the
    ``ImmediateExit``/``StiffFlow`` that ended it.
    A run that cannot start (:func:`_check_start`) raises ValueError before
    any run steps.
    """
    if not max_time > 0:
        raise ValueError(f"max_time must be positive, got {max_time!r}")
    for ci, start, d in runs:
        _check_start(model, ci, start, d)
    trajs = [_trajectory(model, ci, start, d, max_time) for ci, start, d in runs]
    out: list = [None] * len(runs)
    sent = [0] * len(runs)
    waiting: dict[int, tuple[int, Array]] = {}  # run index -> (chart, point) it asks about

    def advance(i: int, row: Array | None) -> None:
        try:
            waiting[i] = trajs[i].send(row)
        except StopIteration as stop:
            out[i] = stop.value
            out[i].velocity_evals = sent[i]
        except (ImmediateExit, StiffFlow) as exc:
            out[i] = exc

    for i in range(len(runs)):
        advance(i, None)
    while waiting:
        by_chart: dict[int, list[int]] = {}
        for i, (ci, _) in waiting.items():
            by_chart.setdefault(ci, []).append(i)
        systems = []
        for ci, idx in by_chart.items():
            cd = model.charts[ci]
            jc = jets.seed(np.stack([waiting[i][1] for i in idx]), order=1)
            systems.append((metric_matrix(cd.metric, jc), cd.hamiltonian(jc).grad))
        mats, dhs = zip(*systems)
        grads = solve_spd_values(np.concatenate(mats), np.concatenate(dhs))
        waiting.clear()
        for i, row in zip((i for idx in by_chart.values() for i in idx), grads):
            sent[i] += 1
            advance(i, row)
    return out


def integrate(
    model: HamiltonianModel, chart_index: int, start: Array, direction: int = 1, max_time: float = 60.0
) -> FlowResult:
    """Integrate the moment-map gradient from one interior point.

    A Dormand-Prince 5(4) step is accepted when its error estimate is at
    most 1e-9 relative to the point's size (max norms); steps change by
    0.2x to 5x, below 1e-12 ``StiffFlow`` is raised, and a step ending
    outside is cut back to the crossing on its continuous extension.  The
    run ends at the boundary, at a critical set (speed
    below 1e-7 and moment gain below 1e-14 in one step), on leaving the
    atlas, when ``max_time`` is used up (``"max_time"``) or after 40,000
    steps (``"max_steps"``).  ``max_time`` must be positive (``inf``
    allowed), and the run must be able to start (a direction of 1 or -1, a
    chart of the model with a metric, a start of its dimension and boundary
    value at most 1e-9), else ``ValueError``.  Starts on (or within 1e-9 of)
    the boundary are refused with ``ImmediateExit`` when the initial velocity
    points outward or is tangent within 1e-8: a tangent start grazes the
    boundary (the boundary value has a strict minimum there along the
    flow), so the maximal trajectory inside the domain is the constant
    point.  This is ``integrate_many`` with one run.
    """
    (res,) = integrate_many(model, [(chart_index, start, direction)], max_time)
    if isinstance(res, Exception):
        raise res
    return res


def stabilizer_of(model: HamiltonianModel, chart_index: int, point: Array) -> int:
    """Order of the finite stabilizer at a point; 0 flags a fixed point.

    It is the gcd of the weights in the chart's table on the keys that move
    the point: every translation key, and every rotation plane whose radius
    exceeds 1e-9 (a weight 0 leaves the gcd as it is).
    """
    p = np.asarray(point, dtype=float)
    table = model.charts[chart_index].weights
    return math.gcd(*(int(w) for key, w in table.items() if len(key) == 1 or math.hypot(*p[list(key)]) > 1e-9))


@dataclass
class OrbitClass:
    """Type of the invariant surface swept by a gradient trajectory."""

    kind: str
    upward: FlowResult | None
    downward: FlowResult | None
    detail: str = ""


def classify_orbit(model: HamiltonianModel, chart_index: int, point: Array) -> OrbitClass:
    """The kind of surface the flow sweeps from ``point``, refused as ``integrate`` refuses a start."""
    _check_start(model, chart_index, point, 1)
    cd = model.charts[chart_index]
    p = cd.chart.wrap(np.asarray(point, dtype=float))
    if np.abs(cd.generator_values(p[None])).max() < 1e-8:
        return OrbitClass(kind="fixed_point", upward=None, downward=None)

    ends = {}
    results = {}
    for label, res in zip(("up", "down"), integrate_many(model, [(chart_index, p, 1), (chart_index, p, -1)])):
        if isinstance(res, StiffFlow):
            raise res
        if isinstance(res, ImmediateExit):
            res = None  # the flow leaves through the boundary at once
        results[label] = res
        ends[label] = "boundary" if res is None else res.termination
    for label in ("up", "down"):
        if ends[label] in ("max_time", "max_steps", "exited_chart"):
            return OrbitClass(
                kind="unresolved",
                upward=results["up"],
                downward=results["down"],
                detail=f"{label}ward flow ended with {ends[label]}",
            )

    n_boundary = sum(1 for label in ("up", "down") if ends[label] == "boundary")
    if n_boundary == 0:
        kind = "sphere"
    elif n_boundary == 1:
        kind = "disc"
    else:
        kind = "annulus"
        h0 = jets.value_at(cd.hamiltonian, p)
        span = 0.0
        for res in results.values():
            if res is not None and len(res.points) > 0:
                span = max(span, float(np.abs(res.points - res.points[0]).max()))
        if span < 1e-6 and abs(h0) < 1e-8:
            kind = "constant_legendrian"
    return OrbitClass(kind=kind, upward=results["up"], downward=results["down"])


@dataclass
class BoundaryPortrait:
    has_positive: bool
    has_negative: bool
    total_mismatches: int


def boundary_sign_portrait(
    model: HamiltonianModel, samples: int = 400, seed: int = 0
) -> BoundaryPortrait:
    """Sample the boundary and compare moment-map signs with exit directions."""
    portrait = BoundaryPortrait(False, False, 0)
    for _, cd, pts in model.boundary_clouds(samples, seed, 41):
        jc = jets.seed(pts, order=1)
        h = cd.hamiltonian(jc)
        hv = h.value
        portrait.has_positive |= bool((hv > 1e-8).any())
        portrait.has_negative |= bool((hv < -1e-8).any())
        if cd.metric is not None:
            grad = solve_spd_values(metric_matrix(cd.metric, jc), h.grad)
            df = cd.chart.boundary(jc).grad
            out = np.einsum("ni,ni->n", df, grad)
            strong = np.abs(hv) > 1e-6
            portrait.total_mismatches += int((np.sign(out[strong]) != np.sign(hv[strong])).sum())
    return portrait


# ---------------------------------------------------------------------------
# zero-level orbit sets on the boundary
# ---------------------------------------------------------------------------


@dataclass
class LegendrianComponent:
    chart_index: int
    representative: Array
    loop: Array
    closed: bool
    torus_certified: bool
    tangent_pairing: float


@dataclass
class LegendrianSet:
    components: list[LegendrianComponent] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.components)


def _project_to_zero_set(cd: ChartData, pts: Array):
    """At most 60 Newton steps of least norm per row of ``pts`` onto {boundary = 0, moment = 0}, to 1e-10.

    Returns the points and a mask of the rows that converged.  Each row steps
    as it would alone and leaves the batch when it converges; a row whose Gram
    matrix is singular stops, unconverged and unwrapped, where it is.
    """
    q = np.array(pts, dtype=float)
    ok = np.zeros(q.shape[0], dtype=bool)
    live, cur = np.arange(q.shape[0]), q.copy()  # the rows still stepping, and their points
    for it in range(60):
        if not live.size:
            return q, ok
        jc = jets.seed(cur, order=1)
        fv, hv = cd.chart.boundary(jc), cd.hamiltonian(jc)
        vals = np.empty((live.size, 2))
        vals[:, 0], vals[:, 1] = fv.value, hv.value
        jac = np.empty((live.size, 2, cur.shape[1]))
        jac[:, 0], jac[:, 1] = fv.grad, hv.grad
        done = np.abs(vals).max(axis=1) < 1e-10
        if done.any():
            q[live[done]], ok[live[done]] = cd.chart.wrap(cur[done]), True
            if done.all():
                return q, ok
            live, cur, vals, jac = live[~done], cur[~done], vals[~done], jac[~done]
        try:
            lam = np.linalg.solve(jac @ jac.transpose(0, 2, 1), -vals[:, :, None])
        except np.linalg.LinAlgError:  # a singular Gram matrix: each live row finishes alone
            for k, i in enumerate(live):
                q[i], ok[i], _ = _project_point(cd, cur[k], 60 - it)
            return q, ok
        delta = (jac.transpose(0, 2, 1) @ lam)[:, :, 0]
        top = np.abs(delta).max(axis=1)
        if (top > 0.5).any():
            # a step longer than 0.5 in a coordinate shrinks to 0.5 there; the
            # other rows (NaN rows too) scale by 0.5 / 0.5, which is 1.0 exactly
            delta *= (0.5 / np.fmax(top, 0.5))[:, None]
        cur = cur + delta
    q[live] = cd.chart.wrap(cur)
    return q, ok


def _project_point(cd: ChartData, p: Array, steps: int):
    """At most ``steps`` of :func:`_project_to_zero_set`'s Newton steps for one point ``p`` (d,),
    bitwise, on a batch of one's shapes with no row bookkeeping.  Returns the point, whether
    it converged, and the converged (boundary, moment) Jacobian, or None when ``wrap`` moved it."""
    cur = np.array(p, dtype=float)[None]
    vals, jac = np.empty((1, 2)), np.empty((1, 2, cur.shape[1]))
    for _ in range(steps):
        jc = jets.seed(cur, order=1)
        fv, hv = cd.chart.boundary(jc), cd.hamiltonian(jc)
        vals[:, 0], vals[:, 1] = fv.value, hv.value
        jac[:, 0], jac[:, 1] = fv.grad, hv.grad
        if abs(vals[0, 0]) < 1e-10 and abs(vals[0, 1]) < 1e-10:  # False on a NaN, as the batch's max
            q = cd.chart.wrap(cur)[0]
            return q, True, (jac[0] if q.tobytes() == cur[0].tobytes() else None)
        try:
            lam = np.linalg.solve(jac @ jac.transpose(0, 2, 1), -vals[:, :, None])
        except np.linalg.LinAlgError:
            return cur[0], False, None
        delta = (jac.transpose(0, 2, 1) @ lam)[:, :, 0]
        top = np.abs(delta).max()
        if top > 0.5:
            delta *= 0.5 / top
        cur = cur + delta
    return cd.chart.wrap(cur)[0], False, None


def _transverse_direction(cd: ChartData, p: Array, prev: Array | None, jac: Array | None):
    """Unit tangent of the zero set orthogonal to the action generator; ``jac`` is the
    (boundary, moment) Jacobian at ``p``, or None to evaluate it here."""
    if jac is None:
        jc = jets.seed(p[None, :], order=1)
        jac = np.stack([cd.chart.boundary(jc).grad[0], cd.hamiltonian(jc).grad[0]])
    _, _, vh = np.linalg.svd(jac)
    basis = vh[2:].T
    xv = cd.generator_values(p[None])[0]
    xk = basis.T @ xv
    norm = np.linalg.norm(xk)
    if norm < 1e-10:
        return None
    w = basis @ (np.array([-xk[1], xk[0]]) / norm)
    w /= np.linalg.norm(w)
    if prev is not None and float(w @ prev) < 0.0:
        w = -w
    return w


def _trace_component(
    model: HamiltonianModel, ci: int, p0: Array, step: float, max_steps: int = 6000
):
    """Predictor-corrector walk along the zero set, switching charts as needed.  Returns the
    walk's points per chart index, in the order visited, and whether it closed: only a point
    after step 4 within 0.6 * step of the start *point*, in the start chart, closes it, so a
    walk that returns to its start orbit elsewhere, or ends in another chart, never closes.
    A projected point that ``wrap`` left in place is tested against the chart's sides alone,
    its boundary value having just been read below 1e-10; any other against the whole domain."""
    samples: dict[int, list[Array]] = {ci: [p0.copy()]}
    start_chart, start_point = ci, p0.copy()
    p = p0.copy()
    jac = None  # the projection's Jacobian at p, while p is its output
    prev_w: Array | None = None
    closed = False
    for i in range(max_steps):
        cd = model.charts[ci]
        w = _transverse_direction(cd, p, prev_w, jac)
        if w is None:
            break
        cand, ok, jac = _project_point(cd, cd.chart.wrap(p + step * w), 60)
        if not ok:
            break
        prev_w = w
        if jac is None:
            inside = cd.chart.contains(cand, slack=1e-9)[0]
        else:
            sides = cd.chart.sides
            inside = not sides or holds(sides, jets.seed(cand[None], order=0), 1e-9)[0]
        if not inside:
            hit = next(model.transfers(ci, cand[None], 1e-9), None)
            if hit is None:
                break
            tr, _, (p,) = hit
            jac = None
            prev_w = tr.map.jacobian(cand[None, :])[0] @ w
            prev_w = prev_w / np.linalg.norm(prev_w)
            ci = tr.dst
        else:
            p = cand
        samples.setdefault(ci, []).append(p.copy())
        if (
            i > 4
            and ci == start_chart
            and float(model.charts[ci].chart.distance(p, start_point)) < 0.6 * step
        ):
            closed = True
            break
    return {k: np.array(v) for k, v in samples.items()}, closed


def _orbit_images(cd: ChartData, points: Array, angles: int) -> Array:
    """Wrapped action images of each point at ``angles`` equally spaced angles, (k, angles, d)."""
    images, _ = cd.action_map(np.linspace(0.0, 2 * np.pi, angles, endpoint=False), points)
    return cd.chart.wrap(images.swapaxes(0, 1))


def _orbits_near(chart, orbits: Array, cloud: Array, radius: float) -> Array:
    """Mask of the orbits (k, angles, d) with a point within ``radius`` of ``cloud``."""
    near = np.zeros(orbits.shape[0], dtype=bool)
    for ia, _, s in chart.squared_distance_blocks(orbits.reshape(-1, orbits.shape[-1]), cloud, radius):
        # a NaN distance in an angle's row drops that angle, as a scalar min() would
        near[ia[np.sqrt(s.min(axis=1)) < radius] // orbits.shape[1]] = True
    return near


def detect_legendrian_set(model: HamiltonianModel, seed: int = 0) -> LegendrianSet:
    """Find the boundary zero-level orbit sets and group them into components.

    Each chart draws 600 boundary samples, and the 60 with the smallest |H|
    are candidates.  They are projected onto the zero set in one batch, each
    row taking its own Newton steps, then filtered and mapped around their
    orbits at 128 angles in batches per chart.  Only the tracing, in steps of 0.04,
    is sequential: each traced cloud is tested once against the orbits of
    every candidate not yet claimed, and a candidate within 2.5 steps of a
    cloud is claimed and not traced.
    """
    out = LegendrianSet()
    claimed: dict[int, list[Array]] = {}
    for ci, cd, pts in model.boundary_clouds(600, seed, 97):
        hv = cd.hamiltonian(jets.seed(pts, order=0)).value
        if hv.min() > 1e-8 or hv.max() < -1e-8:
            continue
        order = np.argsort(np.abs(hv))[:60]
        cands, ok = _project_to_zero_set(cd, pts[order])
        cands = cands[ok]
        cands = cands[cd.chart.contains(cands, slack=1e-6)]
        xv = cd.generator_values(cands)
        keep = ~(np.abs(xv).max(axis=1) < 1e-8)
        cands, xv = cands[keep], xv[keep]
        if not len(cands):
            continue
        orbits = _orbit_images(cd, cands, 128)
        skip = np.zeros(len(cands), dtype=bool)
        for c in claimed.get(ci, []):
            skip |= _orbits_near(cd.chart, orbits, c, 2.5 * _STEP)
        for i, (p, xp) in enumerate(zip(cands, xv)):
            if skip[i]:
                continue
            alpha = cd.alpha().coefficients(jets.seed(p[None, :], order=1))
            pairing = sum(alpha[key].value[0] * xp[key[0]] for key in alpha)
            traced, closed = _trace_component(model, ci, p, _STEP)
            for chart_idx, cloud in traced.items():
                claimed.setdefault(chart_idx, []).append(cloud)
            rest = i + 1 + np.flatnonzero(~skip[i + 1 :])
            if ci in traced and rest.size:
                skip[rest] = _orbits_near(cd.chart, orbits[rest], traced[ci], 2.5 * _STEP)
            cert = _torus_certificate(cd, p)
            out.components.append(
                LegendrianComponent(
                    chart_index=ci,
                    representative=p,
                    loop=traced.get(ci, np.array([p])),
                    closed=closed,
                    torus_certified=cert,
                    tangent_pairing=float(abs(pairing)),
                )
            )
    return out


def _torus_certificate(cd: ChartData, p: Array) -> bool:
    """Whole action orbit of a zero-set point stays on the zero set, to 1e-7 at 24 angles; a NaN never holds."""
    jc = jets.seed(_orbit_images(cd, p[None, :], 24)[0], order=0)
    on = (np.abs(cd.chart.boundary(jc).value) <= 1e-7) & (np.abs(cd.hamiltonian(jc).value) <= 1e-7)
    return bool(on.all())
