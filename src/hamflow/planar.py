"""Surface-based models driven by a planar logarithmic-pit potential.

The base surface is a sublevel set of

    V(x, y) = 0.05 (x^2 + y^2) + sum_j (log |(x, y) - a_j|)^2

whose logarithmic pits punch one hole per listed center: the sublevel region
at the chosen cut is a disc with ``len(holes)`` holes, verified at build time
by counting the connected components of the region and its complement on a
grid, as union-find over row runs.  Rescaled so its minimum sits at 0 and the
cut at 1/2, the potential plays two roles:

* ``free_action_planar``: circle times surface cross an interval, with the
  circle translating the free periodic coordinate, area form weighted by the
  potential's Laplacian.
* ``disc_bundle_over_surface``: a disc bundle over the same surface, the
  circle rotating the fibers, with a collar ramp shaping the boundary.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .chart import Chart
from .critical import _components
from .errors import BadRamp, BadStructureConstant
from .forms import KForm
from .jets import Jet
from .model import ChartData, HamiltonianModel, assert_moment, circle_action

Array = np.ndarray

DEFAULT_HOLES = {
    1: (),
    2: ((0.0, 0.0),),
    3: ((-0.55, 0.0), (0.55, 0.0)),
}

_EXCLUDE2 = 1e-8  # squared distance below which a hole center poisons a sample


class PitPotential:
    """Rescaled logarithmic-pit potential and its exact Laplacian."""

    def __init__(self, holes: tuple[tuple[float, float], ...], c: float):
        if c <= 0:
            raise ValueError(f"level offset must be positive, got {c}")
        self.holes = tuple((float(a), float(b)) for a, b in holes)
        self.c = float(c)
        self.minimum = self._find_minimum()
        self.level = self.minimum + self.c
        self.box_radius = self._find_box_radius()
        self._validate_topology()

    # -- raw potential ------------------------------------------------

    def raw_np(self, x: Array, y: Array) -> Array:
        v = 0.05 * (x * x + y * y)
        for a, b in self.holes:
            r2 = (x - a) ** 2 + (y - b) ** 2
            r2 = np.maximum(r2, _EXCLUDE2)
            v = v + 0.25 * np.log(r2) ** 2
        return v

    def raw_jet(self, x: Jet, y: Jet) -> Jet:
        v = (x * x + y * y) * 0.05
        for a, b in self.holes:
            dx, dy = x - a, y - b
            lg = jets.log(dx * dx + dy * dy) * 0.5
            v = v + lg * lg
        return v

    # -- rescaled value and Laplacian ----------------------------------

    def value(self, x: Jet, y: Jet) -> Jet:
        return (self.raw_jet(x, y) - self.minimum) / (2 * self.c)

    def laplacian(self, x: Jet, y: Jet) -> Jet:
        out = x * 0.0 + 0.2
        for a, b in self.holes:
            dx, dy = x - a, y - b
            out = out + 2.0 / (dx * dx + dy * dy)
        return out / (2 * self.c)

    # -- build-time analysis -------------------------------------------

    def _find_minimum(self) -> float:
        span = max([2.5] + [abs(a) + 2.0 for ab in self.holes for a in ab])
        xs = np.linspace(-span, span, 301)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        vals = self.raw_np(gx, gy)
        for a, b in self.holes:
            vals[(gx - a) ** 2 + (gy - b) ** 2 < 1e-2] = np.inf
        flat = np.argsort(vals.ravel())[:12]
        best = np.inf
        for f in flat:
            p = np.array([gx.ravel()[f], gy.ravel()[f]])
            best = min(best, self._refine_min(p))
        return best

    def _refine_min(self, p: Array) -> float:
        for _ in range(40):
            j = jets.seed(p[None, :], order=2)
            f = self.raw_jet(j[0], j[1])
            g = f.grad[0]
            if np.linalg.norm(g) < 1e-13:
                break
            h = f.hess[0]
            try:
                step = np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                step = 0.1 * g
            if not np.all(np.isfinite(step)) or np.dot(step, g) <= 0:
                step = 0.1 * g
            nrm = np.linalg.norm(step)
            if nrm > 0.25:
                step *= 0.25 / nrm
            p = p - step
        return float(self.raw_jet(*jets.seed(p[None, :], order=0)).value[0])

    def _find_box_radius(self) -> float:
        rs = np.linspace(0.0, 20.0, 801)
        phis = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        rr, pp = np.meshgrid(rs, phis, indexing="ij")
        inside = self.raw_np(rr * np.cos(pp), rr * np.sin(pp)) <= self.level
        hit = np.nonzero(np.any(inside, axis=1))[0]
        if hit.size == 0:
            raise BadStructureConstant("sublevel region of the pit potential is empty")
        return float(rs[hit[-1]]) + 0.5

    def _validate_topology(self) -> None:
        """Count the components of the sublevel region and its complement on a 241 x 241 grid."""
        xs = np.linspace(-self.box_radius, self.box_radius, 241)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        inside = self.raw_np(gx, gy) <= self.level
        edge = np.concatenate([inside[0], inside[-1], inside[:, 0], inside[:, -1]])
        if np.any(edge):
            raise BadStructureConstant("sublevel region leaks out of its bounding box")
        n_in = _count_components(inside)
        n_out = _count_components(~inside)
        want_out = len(self.holes) + 1
        if n_in != 1 or n_out != want_out:
            raise BadStructureConstant(
                f"sublevel region has {n_in} component(s) and {n_out} complement "
                f"component(s); expected 1 and {want_out}"
            )


def _count_components(mask: Array) -> int:
    """Components of a boolean grid under 4-connectivity: union-find over the row runs
    of True cells, each run joined to the runs of the next row that overlap it."""
    w = mask.shape[1] + 1  # a run's keys are flat indices row * w + column of ``step``
    step = np.diff(np.pad(mask, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    start, end = np.flatnonzero(step == 1), np.flatnonzero(step == -1)
    # next-row runs overlapping run k: ends past its start, starts before its end
    lo = np.searchsorted(end, start + w, side="right")
    hi = np.searchsorted(start, end + w, side="left")
    cnt = np.maximum(hi - lo, 0)
    src = np.repeat(np.arange(start.size), cnt)
    dst = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
    labels = _components(start.size, src, dst)
    return int((labels == np.arange(start.size)).sum())


def _resolve_holes(k: int, holes) -> tuple[tuple[float, float], ...]:
    if holes is None:
        if k in DEFAULT_HOLES:
            return DEFAULT_HOLES[k]
        r = 0.65
        return tuple(
            (r * np.cos(2 * np.pi * j / (k - 1)), r * np.sin(2 * np.pi * j / (k - 1)))
            for j in range(k - 1)
        )
    holes = tuple((float(a), float(b)) for a, b in holes)
    if len(holes) != k - 1:
        raise ValueError(f"k={k} needs {k - 1} hole centers, got {len(holes)}")
    return holes


def free_action_planar(k: int = 1, holes=None, c: float = 1.0) -> HamiltonianModel:
    """Free circle model: loop times a k-boundary planar surface, thickened."""
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    pot = PitPotential(_resolve_holes(k, holes), c)
    R = pot.box_radius

    def membrane(jc):
        t, s, x, y = jc
        return s * s * 0.5 + pot.value(x, y) - 0.5

    chart = Chart(
        name="shell",
        coords=("t", "s", "x", "y"),
        periodic=(True, False, False, False),
        box_lo=(0.0, -1.02, -R, -R),
        box_hi=(2 * np.pi, 1.02, R, R),
        domain=(membrane,),
        boundary=membrane,
    )

    def omega(jc):
        minus_one = jets.constant(-1.0, jc[0])
        return {(0, 1): minus_one, (2, 3): pot.laplacian(jc[2], jc[3])}

    def hamiltonian(jc):
        return jc[1] * 1.0

    generator, action = circle_action({(0,): 1.0})

    def liouville(jc):
        zero = jets.constant(0.0, jc[0])
        f2 = pot.value(jc[2], jc[3])
        lap = pot.laplacian(jc[2], jc[3])
        return [zero, jc[1] * 1.0, f2.partial(2) / lap, f2.partial(3) / lap]

    def alpha(jc):
        f2 = pot.value(jc[2], jc[3])
        return {(0,): jc[1] * 1.0, (2,): -f2.partial(3), (3,): f2.partial(2)}

    def metric(jc):
        one = jets.constant(1.0, jc[0])
        zero = jets.constant(0.0, jc[0])
        lap = pot.laplacian(jc[2], jc[3])
        g = [[zero] * 4 for _ in range(4)]
        g[0][0] = one
        g[1][1] = one
        g[2][2] = lap
        g[3][3] = lap * 1.0
        return g

    cd = ChartData(
        chart=chart,
        omega=KForm(2, 4, omega),
        hamiltonian=hamiltonian,
        generator=generator,
        action=action,
        liouville=liouville,
        metric=metric,
        boundary_alpha=KForm(1, 4, alpha),
    )
    assert_moment(cd)
    return HamiltonianModel(
        name="free_action_planar",
        params={"k": k},
        charts=[cd],
        description="free loop translation over a holed planar surface",
        meta={
            "potential_min": pot.minimum,
            "level": pot.level,
            "box_radius": R,
            "holes": pot.holes,
            "boundary_circles": k,
        },
    )


def _default_ramp(x: Jet) -> Jet:
    cube = x * x * x
    mask = x.value > 0.0
    v = np.where(mask, cube.value, 0.0)
    g = None if cube.grad is None else np.where(mask[:, None], cube.grad, 0.0)
    h = None if cube.hess is None else np.where(mask[:, None, None], cube.hess, 0.0)
    return Jet(v, g, h)


def _check_ramp(ramp) -> None:
    h = 1e-3
    pts = np.array([[-h], [0.0], [h], [1.0]])
    out = ramp(jets.seed(pts, order=2)[0])
    vals, grads, hesss = out.value, out.grad[:, 0], out.hess[:, 0, 0]
    flat_left = abs(vals[0]) + abs(grads[0]) + abs(hesss[0])
    if flat_left > 1e-12:
        raise BadRamp(f"ramp is not flat on the left of 0 (deviation {flat_left:.2e})")
    if abs(vals[2]) > 10 * h**3 or abs(grads[2]) > 10 * h**2 or abs(hesss[2]) > 10 * h:
        raise BadRamp("ramp does not vanish to second order at 0")
    if vals[3] < 1.0 - 1e-9:
        raise BadRamp(f"ramp must reach 1 at argument 1, got {vals[3]:.6f}")


def disc_bundle_over_surface(holes=(), collar: float = 0.1, ramp=None) -> HamiltonianModel:
    """Fiber rotation of a disc bundle over a holed planar surface."""
    if not (0 < collar <= 0.3):
        raise BadRamp(f"collar width must lie in (0, 0.3], got {collar}")
    ramp = ramp if ramp is not None else _default_ramp
    _check_ramp(ramp)
    holes = tuple((float(a), float(b)) for a, b in holes)
    pot = PitPotential(holes, 1.0)
    R = pot.box_radius
    seam = 0.5 - collar

    def lid(jc):
        x, y, w1, w2 = jc
        g = ramp((pot.value(x, y) - seam) / collar)
        return g + w1 * w1 + w2 * w2 - 1.0

    chart = Chart(
        name="bundle",
        coords=("x", "y", "w1", "w2"),
        periodic=(False, False, False, False),
        box_lo=(-R, -R, -1.02, -1.02),
        box_hi=(R, R, 1.02, 1.02),
        domain=(lid,),
        boundary=lid,
    )

    def omega(jc):
        one = jets.constant(1.0, jc[0])
        return {(0, 1): pot.laplacian(jc[0], jc[1]), (2, 3): one}

    def hamiltonian(jc):
        return (jc[2] * jc[2] + jc[3] * jc[3]) * 0.5

    generator, action = circle_action({(2, 3): 1.0})

    def liouville(jc):
        f2 = pot.value(jc[0], jc[1])
        lap = pot.laplacian(jc[0], jc[1])
        return [f2.partial(0) / lap, f2.partial(1) / lap, jc[2] * 0.5, jc[3] * 0.5]

    def alpha(jc):
        f2 = pot.value(jc[0], jc[1])
        return {
            (0,): -f2.partial(1),
            (1,): f2.partial(0),
            (2,): jc[3] * -0.5,
            (3,): jc[2] * 0.5,
        }

    def metric(jc):
        one = jets.constant(1.0, jc[0])
        zero = jets.constant(0.0, jc[0])
        lap = pot.laplacian(jc[0], jc[1])
        g = [[zero] * 4 for _ in range(4)]
        g[0][0] = lap
        g[1][1] = lap * 1.0
        g[2][2] = one
        g[3][3] = one
        return g

    cd = ChartData(
        chart=chart,
        omega=KForm(2, 4, omega),
        hamiltonian=hamiltonian,
        generator=generator,
        action=action,
        liouville=liouville,
        metric=metric,
        boundary_alpha=KForm(1, 4, alpha),
    )
    assert_moment(cd)
    return HamiltonianModel(
        name="disc_bundle_over_surface",
        params={"holes": len(holes), "collar": collar},
        charts=[cd],
        description="fiberwise disc rotation over a holed planar surface",
        meta={
            "potential_min": pot.minimum,
            "box_radius": R,
            "seam": seam,
        },
    )
