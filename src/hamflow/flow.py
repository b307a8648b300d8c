"""Gradient-flow machinery: integration, orbit types, boundary censuses.

The central object is the flow of the metric gradient of the moment map.
Trajectories are integrated chart by chart with an adaptive Dormand-Prince
5(4) stepper, written as a generator of velocity requests: many trajectories
advance in rounds, and each round solves every chart's requests as one batch
of order-1 gradient rows, bitwise equal to one-row solves.  A step asks for
six velocities, its first stage being the last of the step before.  Chart
crossings go through the model's transitions, and a boundary hit is found by
bisection on the step's continuous extension, which asks for no velocity.
On top of the integrator sit classifiers: the orbit type swept by a
trajectory under the circle action, a sign portrait of the moment map on
the boundary, and a detector that finds and groups the closed zero-level
orbit sets on the boundary, filtering its candidates in batches.  The
finite stabilizer of a point is exact: a gcd of the weights in the chart's
table that move it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .chart import sample_boundary
from .errors import BoundaryNotFound, ImmediateExit, StiffFlow
from .forms import field_values
from .model import ChartData, HamiltonianModel, moving_keys

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


def _value_at(scalar, p: Array) -> float:
    return float(scalar(jets.seed(p[None, :], order=0)).value[0])


def _trajectory(model: HamiltonianModel, ci: int, start: Array, direction: int, max_time: float):
    """``integrate``'s stepper: yields ``(chart, point)`` per velocity, is sent the gradient."""
    cd = model.charts[ci]
    p = cd.chart.wrap(np.asarray(start, dtype=float))
    k1 = None  # velocity at the current point, once computed

    if cd.chart.boundary is not None and _value_at(cd.chart.boundary, p) > -1e-9:
        df = cd.chart.boundary(jets.seed(p[None, :], order=1)).grad[0]
        k1 = direction * (yield ci, p)
        if float(df @ k1) >= -1e-8:
            msg = f"start on the boundary of chart {cd.chart.name!r} with outward or grazing initial velocity"
            raise ImmediateExit(msg)

    times, pts, charts, hs = [0.0], [p.copy()], [ci], [_value_at(cd.hamiltonian, p)]
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
        if cd.chart.boundary is not None and _value_at(cd.chart.boundary, p_new) > 0.0:
            # bisect theta in [0, 1] on the step's fourth-order dense output
            dy = p_new - p
            r3 = h * k[0] - dy
            r4, r5 = dy - h * k[6] - r3, h * (_DP_DENSE @ k)
            at = lambda th: p + th * (dy + (1.0 - th) * (r3 + th * (r4 + (1.0 - th) * r5)))
            lo, hi = 0.0, 1.0
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                bisections += 1
                if _value_at(cd.chart.boundary, at(mid)) > 0.0:
                    hi = mid
                else:
                    lo = mid
            p_new = at(lo)
            if abs(_value_at(cd.chart.boundary, p_new)) > 1e-10:
                q = at(hi)
                if abs(_value_at(cd.chart.boundary, q)) < abs(_value_at(cd.chart.boundary, p_new)):
                    p_new = q
            t += lo * h
            termination = "boundary"
        else:
            t += h
            h *= fac
        p_new = cd.chart.wrap(p_new)
        h_new = _value_at(cd.hamiltonian, p_new)
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
        bisections=bisections,
        chart_switches=switches,
    )


def integrate_many(
    model: HamiltonianModel, runs: list[tuple[int, Array, int]], max_time: float = 60.0
) -> list[FlowResult | ImmediateExit | StiffFlow]:
    """Integrate all ``(chart index, start, direction)`` runs as one batch.

    In each round every live run steps to its next velocity request, and
    each chart's gradient is evaluated once on that chart's stacked rows.
    Batched rows are bitwise one-row values, so each run is bit for bit its
    lone run.  The list returned is aligned with ``runs``: each run's
    ``FlowResult``, or the ``ImmediateExit``/``StiffFlow`` that ended it.
    """
    if not max_time > 0:
        raise ValueError(f"max_time must be positive, got {max_time!r}")
    trajs = [_trajectory(model, ci, start, d, max_time) for ci, start, d in runs]
    out: list = [None] * len(runs)
    sent = [0] * len(runs)
    waiting: dict[int, tuple[int, Array]] = {}  # run index -> (chart, point) it asks about
    grads = {}

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
        for ci in {c for c, _ in waiting.values()}:
            idx = [i for i, (c, _) in waiting.items() if c == ci]
            if ci not in grads:
                grads[ci] = model.charts[ci].gradient_field()
            stack = np.stack([waiting.pop(i)[1] for i in idx])
            for i, row in zip(idx, field_values(grads[ci], jets.seed(stack, order=1))):
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
    allowed), else ``ValueError``.  Starts on (or within 1e-9 of) the
    boundary are refused with ``ImmediateExit`` when the initial velocity
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

    It is the gcd of the weights whose keys move the point (see
    :func:`model.moving_keys`), a rotation plane moving it when its radius
    exceeds 1e-9.
    """
    keys = moving_keys(model.charts[chart_index].weights, np.asarray(point, dtype=float), 1e-9)
    return math.gcd(*(w for _, w in keys))


@dataclass
class OrbitClass:
    """Type of the invariant surface swept by a gradient trajectory."""

    kind: str
    upward: FlowResult | None
    downward: FlowResult | None
    detail: str = ""


def classify_orbit(model: HamiltonianModel, chart_index: int, point: Array) -> OrbitClass:
    cd = model.charts[chart_index]
    p = cd.chart.wrap(np.asarray(point, dtype=float))
    jc = jets.seed(p[None, :], order=0)
    if np.abs(field_values(cd.generator, jc)).max() < 1e-8:
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
        h0 = float(cd.hamiltonian(jc).value[0])
        span = 0.0
        for res in results.values():
            if res is not None and len(res.points) > 0:
                span = max(span, float(np.abs(res.points - res.points[0]).max()))
        if span < 1e-6 and abs(h0) < 1e-8:
            kind = "constant_legendrian"
    return OrbitClass(kind=kind, upward=results["up"], downward=results["down"])


@dataclass
class ChartPortrait:
    chart_index: int
    n_positive: int
    n_negative: int
    n_zero: int
    sign_mismatches: int | None


@dataclass
class BoundaryPortrait:
    charts: list[ChartPortrait]

    @property
    def has_positive(self) -> bool:
        return any(c.n_positive > 0 for c in self.charts)

    @property
    def has_negative(self) -> bool:
        return any(c.n_negative > 0 for c in self.charts)

    @property
    def total_mismatches(self) -> int:
        return sum(c.sign_mismatches or 0 for c in self.charts)


def boundary_sign_portrait(
    model: HamiltonianModel, samples: int = 400, seed: int = 0
) -> BoundaryPortrait:
    """Sample the boundary and compare moment-map signs with exit directions."""
    rows = []
    for ci, cd in enumerate(model.charts):
        if cd.chart.boundary is None:
            continue
        rng = np.random.default_rng([seed, 41, ci])
        try:
            pts = sample_boundary(cd.chart, samples, rng, accept=cd.boundary_accept)
        except BoundaryNotFound:
            continue
        jc = jets.seed(pts, order=1)
        hv = cd.hamiltonian(jc).value
        n_pos = int((hv > 1e-8).sum())
        n_neg = int((hv < -1e-8).sum())
        n_zero = int(len(hv) - n_pos - n_neg)
        mism: int | None = None
        if cd.metric is not None:
            grad = field_values(cd.gradient_field(), jc)
            df = cd.chart.boundary(jc).grad
            out = np.einsum("ni,ni->n", df, grad)
            strong = np.abs(hv) > 1e-6
            mism = int((np.sign(out[strong]) != np.sign(hv[strong])).sum())
        rows.append(
            ChartPortrait(
                chart_index=ci,
                n_positive=n_pos,
                n_negative=n_neg,
                n_zero=n_zero,
                sign_mismatches=mism,
            )
        )
    return BoundaryPortrait(charts=rows)


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


def _project_to_zero_set(cd: ChartData, p: Array):
    """At most 60 Newton steps of least norm onto {boundary = 0, moment = 0}, to 1e-10.

    Returns the point, whether it converged, and the converged iteration's
    (boundary, moment) Jacobian when ``wrap`` left that iteration's point
    bitwise unchanged, so that it is the Jacobian at the point returned;
    otherwise None.
    """
    q = np.asarray(p, dtype=float).copy()
    for _ in range(60):
        jc = jets.seed(q[None, :], order=1)
        fv = cd.chart.boundary(jc)
        hv = cd.hamiltonian(jc)
        vals = np.array([fv.value[0], hv.value[0]])
        jac = np.stack([fv.grad[0], hv.grad[0]])
        if np.abs(vals).max() < 1e-10:
            out = cd.chart.wrap(q)
            return out, True, (jac if out.tobytes() == q.tobytes() else None)
        gram = jac @ jac.T
        try:
            lam = np.linalg.solve(gram, -vals)
        except np.linalg.LinAlgError:
            return q, False, None
        delta = jac.T @ lam
        top = np.abs(delta).max()
        if top > 0.5:
            delta *= 0.5 / top
        q = q + delta
    return cd.chart.wrap(q), False, None


def _transverse_direction(cd: ChartData, p: Array, prev: Array | None, jac: Array | None):
    """Unit tangent of the zero set orthogonal to the action generator.

    ``jac`` is the (boundary, moment) Jacobian at ``p`` if the caller holds
    it, else None and it is evaluated here.
    """
    if jac is None:
        jc = jets.seed(p[None, :], order=1)
        jac = np.stack([cd.chart.boundary(jc).grad[0], cd.hamiltonian(jc).grad[0]])
    _, _, vh = np.linalg.svd(jac)
    basis = vh[2:].T
    xv = field_values(cd.generator, jets.seed(p[None, :], order=0))[0]
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
    """Predictor-corrector walk along the zero set, switching charts as needed."""
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
        cand, ok, jac = _project_to_zero_set(cd, cd.chart.wrap(p + step * w))
        if not ok:
            break
        prev_w = w
        if not (cd.chart.contains(cand, slack=1e-9)[0] and cd.chart.in_box(cand, 1e-9)):
            hit = next(model.transfers(ci, cand, 1e-9), None)
            if hit is None:
                break
            tr, p = hit
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
    """Action images of each point at ``angles`` equally spaced angles, (k, angles, d)."""
    thetas = np.linspace(0.0, 2 * np.pi, angles, endpoint=False)
    return np.stack([cd.action_map(theta).apply(points) for theta in thetas], axis=1)


def _orbit_near(chart, orbit: Array, cloud: Array, radius: float) -> bool:
    """Whether some point of ``orbit`` (angles, d) lies within ``radius`` of ``cloud``."""
    for _, _, s in chart.squared_distance_blocks(orbit, cloud, radius):
        # a NaN distance in an angle's row drops that angle, as a scalar min() would
        if (np.sqrt(s.min(axis=1)) < radius).any():
            return True
    return False


def detect_legendrian_set(model: HamiltonianModel, seed: int = 0) -> LegendrianSet:
    """Find the boundary zero-level orbit sets and group them into components.

    Each chart draws 600 boundary samples, and the 60 with the smallest |H|
    are candidates.  They are projected, filtered and mapped around their orbits
    at 128 angles in batches per chart; only the claim test (within 2.5
    steps of a traced cloud) and the tracing, in steps of 0.04, are
    sequential.
    """
    out = LegendrianSet()
    claimed: dict[int, list[Array]] = {}
    for ci, cd in enumerate(model.charts):
        if cd.chart.boundary is None:
            continue
        rng = np.random.default_rng([seed, 97, ci])
        try:
            pts = sample_boundary(cd.chart, 600, rng, accept=cd.boundary_accept)
        except BoundaryNotFound:
            continue
        hv = cd.hamiltonian(jets.seed(pts, order=0)).value
        if hv.min() > 1e-8 or hv.max() < -1e-8:
            continue
        order = np.argsort(np.abs(hv))[:60]
        projected = [_project_to_zero_set(cd, pts[idx]) for idx in order]
        cands = np.array([p for p, ok, _ in projected if ok]).reshape(-1, cd.chart.dim)
        cands = cands[cd.chart.contains(cands, slack=1e-6)]
        xv = field_values(cd.generator, jets.seed(cands, order=0))
        keep = ~(np.abs(xv).max(axis=1) < 1e-8)
        cands, xv = cands[keep], xv[keep]
        if not len(cands):
            continue
        orbits = _orbit_images(cd, cands, 128)
        for p, xp, orbit in zip(cands, xv, orbits):
            if any(_orbit_near(cd.chart, orbit, c, 2.5 * _STEP) for c in claimed.get(ci, [])):
                continue
            alpha = cd.alpha().coefficients(jets.seed(p[None, :], order=1))
            pairing = sum(alpha[key].value[0] * xp[key[0]] for key in alpha)
            traced, closed = _trace_component(model, ci, p, _STEP)
            for chart_idx, cloud in traced.items():
                claimed.setdefault(chart_idx, []).append(cloud)
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
    """Whole action orbit of a zero-set point stays on the zero set, to 1e-7 at 24 angles."""
    jc = jets.seed(_orbit_images(cd, p[None, :], 24)[0], order=0)
    off = (np.abs(cd.chart.boundary(jc).value) > 1e-7) | (np.abs(cd.hamiltonian(jc).value) > 1e-7)
    return not off.any()
