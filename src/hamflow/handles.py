"""Model handles and the boundary-surgery construction.

Two standalone handle models (a rotation-invariant saddle block and an
index-zero block with a fixed surface), the explicit identification between
the saddle block's vertical faces and a standard neighborhood of a closed
orbit in a boundary, and the surgery that grafts the saddle block onto a
supported base model along such an orbit.

Each orbit neighborhood is written once, as the jet maps ``place`` and
``tube`` of :class:`OrbitNeighborhood`; the surgery's two transitions are the
handle's face coordinates fed to ``place``, and ``tube`` plus the saddle
scaling.

The saddle block is the symplectization of its face contact structure under
its own scaling field, and the base carries a compatible scaling field, so
the gluing map is an exact match of primitives and moment maps rather than
an approximate interpolation; tests pin this down to roundoff.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets
from .chart import Chart, SmoothMap
from .errors import CollarTooDeep, NotLegendrian, UnsupportedBase
from .flow import stabilizer_of
from .forms import KForm, constant_form
from .jets import Jet
from .model import (
    ChartData,
    HamiltonianModel,
    Transition,
    assert_moment,
    circle_action,
    effective_weights,
    identity_metric,
)

Array = np.ndarray

FLARE_BASE = 1.0 / 3.0
FLARE_GAIN = 0.08


def _positive_cube(w: Jet) -> Jet:
    """max(w, 0)^3 with two continuous derivatives at the joint."""
    cube = w * w * w
    mask = (w.value > 0.0).astype(float)
    grad = None if cube.grad is None else mask[:, None] * cube.grad
    hess = None if cube.hess is None else mask[:, None, None] * cube.hess
    return Jet(mask * cube.value, grad, hess)


def flare_profile(u: Jet) -> Jet:
    """Face half-width squared as a function of radial position squared."""
    return _positive_cube((u - 0.5) * 2.0) * FLARE_GAIN + FLARE_BASE


def flare_profile_value(u: float) -> float:
    return FLARE_GAIN * max(0.0, (u - 0.5) * 2.0) ** 3 + FLARE_BASE


# ---------------------------------------------------------------------------
# saddle block (index-2 handle)
# ---------------------------------------------------------------------------


def _saddle_chart_data(scale: float, kappa: float) -> ChartData:
    """Saddle block with all structure tensors multiplied by ``scale``."""
    k2 = kappa * kappa
    ybox = kappa * 0.66

    def out_face(jc):
        x2 = jc[0] * jc[0] + jc[1] * jc[1]
        y2 = jc[2] * jc[2] + jc[3] * jc[3]
        return y2 - flare_profile(x2) * k2

    def x_cap(jc):
        return jc[0] * jc[0] + jc[1] * jc[1] - 1.0

    chart = Chart(
        name="saddle",
        coords=("x1", "x2", "y1", "y2"),
        periodic=(False,) * 4,
        box_lo=(-1.02, -1.02, -ybox, -ybox),
        box_hi=(1.02, 1.02, ybox, ybox),
        domain=(out_face, x_cap),
        boundary=out_face,
    )

    omega = constant_form(2, 4, {(0, 2): scale, (1, 3): scale})

    def hamiltonian(jc):
        return (jc[1] * jc[2] - jc[0] * jc[3]) * scale

    generator, action = circle_action({(0, 1): 1.0, (2, 3): 1.0})

    def liouville(jc):
        return [jc[0] * -1.0, jc[1] * -1.0, jc[2] * 2.0, jc[3] * 2.0]

    def alpha(jc):
        return {
            (0,): jc[2] * (-2.0 * scale),
            (1,): jc[3] * (-2.0 * scale),
            (2,): jc[0] * -scale,
            (3,): jc[1] * -scale,
        }

    return ChartData(
        chart=chart,
        omega=omega,
        hamiltonian=hamiltonian,
        generator=generator,
        action=action,
        liouville=liouville,
        metric=identity_metric(4, scale=scale),
        boundary_alpha=KForm(1, 4, alpha),
        note="saddle block; faces at x1^2 + x2^2 = 1 are gluing faces",
    )


def weinstein_2handle() -> HamiltonianModel:
    """Standalone saddle block with its flared outer face."""
    cd = _saddle_chart_data(scale=1.0, kappa=1.0)
    assert_moment(cd)
    return HamiltonianModel(
        name="weinstein_2handle",
        params={},
        charts=[cd],
        transitions=[],
        description="rotation-invariant saddle block with contact outer face",
        meta={"saddle_index": 2},
    )


# ---------------------------------------------------------------------------
# index-zero block with a fixed surface
# ---------------------------------------------------------------------------


def weinstein_1handle(m: int = 1) -> HamiltonianModel:
    """Block whose critical set is a whole surface of fixed points."""
    m = int(m)
    effective_weights(m)
    fm = float(m)

    def round_face(jc):
        return jc[0] * jc[0] + jc[1] * jc[1] + jc[2] * jc[2] - 1.0

    def y_cap(jc):
        return jc[3] * jc[3] - 1.0

    chart = Chart(
        name="block",
        coords=("x1", "y1", "x2", "y2"),
        periodic=(False,) * 4,
        box_lo=(-1.02,) * 4,
        box_hi=(1.02,) * 4,
        domain=(round_face, y_cap),
        boundary=round_face,
    )
    omega = constant_form(2, 4, {(0, 1): 1.0, (2, 3): 1.0})

    def hamiltonian(jc):
        return (jc[0] * jc[0] + jc[1] * jc[1]) * (fm / 2.0)

    generator, action = circle_action({(0, 1): fm})

    def liouville(jc):
        return [jc[0] * 0.5, jc[1] * 0.5, jc[2] * 2.0, jc[3] * -1.0]

    def alpha(jc):
        return {
            (0,): jc[1] * -0.5,
            (1,): jc[0] * 0.5,
            (2,): jc[3] * 1.0,
            (3,): jc[2] * 2.0,
        }

    cd = ChartData(
        chart=chart,
        omega=omega,
        hamiltonian=hamiltonian,
        generator=generator,
        action=action,
        liouville=liouville,
        metric=identity_metric(4),
        boundary_alpha=KForm(1, 4, alpha),
        note="faces at y2 = +-1 are gluing faces",
    )
    assert_moment(cd)
    return HamiltonianModel(
        name="weinstein_1handle",
        params={"m": m},
        charts=[cd],
        transitions=[],
        description="index-zero block whose moment map vanishes on a fixed surface",
        meta={"fixed_surface_dim": 2},
    )


# ---------------------------------------------------------------------------
# face identification
# ---------------------------------------------------------------------------


FACE_CHART = Chart(
    name="saddle_face",
    coords=("T", "y1", "y2"),
    periodic=(True, False, False),
    box_lo=(0.0, -0.66, -0.66),
    box_hi=(2 * np.pi, 0.66, 0.66),
)

ORBIT_CHART = Chart(
    name="orbit_neighborhood",
    coords=("t", "x", "y"),
    periodic=(True, False, False),
    box_lo=(0.0, -0.9, -0.9),
    box_hi=(2 * np.pi, 0.9, 0.9),
)


def contact_form_standard() -> KForm:
    """x dt + dy on the orbit-neighborhood coordinates."""

    def coeffs(jc):
        return {(0,): jc[1] * 1.0, (2,): jets.constant(1.0, jc[0])}

    return KForm(1, 3, coeffs)


def face_embedding() -> SmoothMap:
    """Face coordinates into the saddle block at x1^2 + x2^2 = 1."""

    def fwd(jc):
        return [jets.cos(jc[0]), jets.sin(jc[0]), jc[1] * 1.0, jc[2] * 1.0]

    return SmoothMap(source=FACE_CHART, target=_saddle_chart_data(1.0, 1.0).chart, forward=fwd)


def attaching_map() -> SmoothMap:
    """Identify the saddle face with the standard orbit neighborhood."""

    def fwd(jc):
        T, y1, y2 = jc
        s, c = jets.sin(T), jets.cos(T)
        return [T * 1.0, y1 * s - y2 * c, (y1 * c + y2 * s) * -1.0]

    def inv(jc):
        t, x, y = jc
        s, c = jets.sin(t), jets.cos(t)
        return [t * 1.0, x * s - y * c, (x * c + y * s) * -1.0]

    return SmoothMap(source=FACE_CHART, target=ORBIT_CHART, forward=fwd, inverse=inv)


# ---------------------------------------------------------------------------
# standard neighborhoods of closed boundary orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitNeighborhood:
    """Standard coordinates around a closed boundary orbit of a supported base.

    ``place(T, X, Y, E)`` puts neighborhood coordinates at scaling depth ``E``
    (a jet; E = 1 on the boundary) into the base chart; ``tube(jc)`` returns
    ``(T, X, Y, E)`` from base-chart jets, with ``E = depth(jc)``.  The depth
    vanishes only on the tube's core, where the other coordinates divide by
    zero.
    """

    kind: str
    reference: Array
    chart: Chart
    place: Callable[[Jet, Jet, Jet, Jet], list[Jet]]
    tube: Callable[[Sequence[Jet]], tuple[Jet, Jet, Jet, Jet]]
    depth: Callable[[Sequence[Jet]], Jet]

    @property
    def embed(self) -> SmoothMap:
        """Orbit-neighborhood coordinates into the base boundary (E = 1)."""

        def fwd(jc):
            return self.place(*jc, jets.constant(1.0, jc[0]))

        return SmoothMap(source=ORBIT_CHART, target=self.chart, forward=fwd)

    def tube_coords(self, pts: Array) -> tuple[Array, Array, Array, Array]:
        """``(T mod 2 pi, X, Y, log E)`` of base points, from order-0 jets."""
        T, X, Y, E = self.tube(jets.seed(pts, order=0))
        return np.mod(T.value, 2 * np.pi), X.value, Y.value, np.log(E.value)


def _s1_coordinates(ref: Array):
    beta0 = float(np.arctan2(ref[2], ref[1]))

    def place(T, X, Y, E):
        den = X * X + 1.0
        t = T + 2.0 * X * Y / den
        beta = 2.0 * Y / den + beta0
        rho = jets.sqrt(1.0 - X * X) * jets.sqrt(E)
        return [t, rho * jets.cos(beta), rho * jets.sin(beta), E * X]

    def depth(jc):
        _, x, y, h = jc
        r2 = x * x + y * y
        return (r2 + jets.sqrt(r2 * r2 + h * h * 4.0)) * 0.5

    def tube(jc):
        t, x, y, h = jc
        E = depth(jc)
        X = h / E
        beta = jets.atan2(y, x)
        diff = jets.atan2(jets.sin(beta - beta0), jets.cos(beta - beta0))
        den = X * X + 1.0
        Y = diff * den * 0.5
        T = t - 2.0 * X * Y / den
        return T, X, Y, E

    return place, tube, depth


def _disc_coordinates(ref: Array):
    g10 = float(np.arctan2(ref[1], ref[0]))
    g20 = float(np.arctan2(ref[3], ref[2]))

    def place(T, X, Y, E):
        half = jets.sqrt(E)
        r1 = jets.sqrt(X + 0.5) * half
        r2 = jets.sqrt(0.5 - X) * half
        g1 = T + 2.0 * Y + g10
        g2 = T * -1.0 + 2.0 * Y + g20
        return [r1 * jets.cos(g1), r1 * jets.sin(g1), r2 * jets.cos(g2), r2 * jets.sin(g2)]

    def depth(jc):
        x1, y1, x2, y2 = jc
        return x1 * x1 + y1 * y1 + (x2 * x2 + y2 * y2)

    def tube(jc):
        x1, y1, x2, y2 = jc
        E = depth(jc)
        X = (x1 * x1 + y1 * y1 - (x2 * x2 + y2 * y2)) / (E * 2.0)
        d1 = jets.atan2(y1, x1) - g10
        d2 = jets.atan2(y2, x2) - g20
        tot = d1 + d2
        Y = jets.atan2(jets.sin(tot), jets.cos(tot)) * 0.25
        T = jets.atan2(jets.sin(d1), jets.cos(d1)) - Y * 2.0
        return T, X, Y, E

    return place, tube, depth


def standard_neighborhood(base: HamiltonianModel, orbit_ref: Array | None = None) -> OrbitNeighborhood:
    """Standard coordinates around a closed boundary orbit of a supported base."""
    p = base.params
    if base.name == "s1_d3" and (p.get("k"), p.get("m")) == (1, 0):
        kind, coordinates, default = "s1_d3", _s1_coordinates, (0.0, 1.0, 0.0, 0.0)
    elif base.name == "disc_d4" and (p.get("m"), p.get("n")) == (1, -1):
        kind, coordinates, default = "disc_d4", _disc_coordinates, (np.sqrt(0.5), 0.0, np.sqrt(0.5), 0.0)
    else:
        raise UnsupportedBase(
            "surgery is implemented for the unit-speed rotation-free boundary flow "
            "model and the opposite-weight ball model only"
        )
    ref = np.asarray(default if orbit_ref is None else orbit_ref, dtype=float)
    return OrbitNeighborhood(kind, ref, base.charts[0].chart, *coordinates(ref))


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------


def attach_2handle(
    base: HamiltonianModel,
    eps: float = 0.05,
    kappa: float = 0.55,
    orbit_ref: Array | None = None,
) -> HamiltonianModel:
    """Graft the saddle block onto a base model along a closed boundary orbit."""
    nbhd = standard_neighborhood(base, orbit_ref)
    if not (0.0 < eps <= 0.2):
        raise CollarTooDeep(f"collar depth must lie in (0, 0.2], got {eps}")
    if not (0.0 < kappa <= 0.6):
        raise ValueError(f"face width factor must lie in (0, 0.6], got {kappa}")
    ref = nbhd.reference

    base_cd = base.charts[0]
    jc = jets.seed(ref[None, :], order=0)
    h0 = float(base_cd.hamiltonian(jc).value[0])
    f0 = float(base_cd.chart.boundary(jc).value[0])
    if abs(h0) > 1e-10:
        raise NotLegendrian(f"reference point carries moment value {h0:.3e}")
    if abs(f0) > 1e-8:
        raise NotLegendrian(f"reference point is off the boundary by {f0:.3e}")
    if stabilizer_of(base, 0, ref) != 1:
        raise NotLegendrian("the action is not free along the reference orbit")

    scale = float(np.exp(-eps))
    handle_cd = _saddle_chart_data(scale=scale, kappa=kappa)
    assert_moment(handle_cd)

    inner_x2 = float(np.exp(-2.0 * eps))
    patch_r2 = float(np.exp(-4.0 * eps) * kappa * kappa * flare_profile_value(inner_x2))
    face_r2 = kappa * kappa * flare_profile_value(1.0)

    # handle -> base: read face coordinates off the handle point and place
    # them in the orbit neighborhood at the matching scaling depth
    def handle_to_base(jc):
        x1, x2, y1, y2 = jc
        r2 = x1 * x1 + x2 * x2
        r = jets.sqrt(r2)
        T = jets.atan2(x2, x1)
        Xc = r * (x2 * y1 - x1 * y2)
        Yc = (r * (x1 * y1 + x2 * y2)) * -1.0
        es = (1.0 / r) * scale  # e^{sigma} with sigma = -ln r - eps
        return nbhd.place(T, Xc, Yc, es)

    # base -> handle: tube coordinates plus scaling depth
    def base_to_handle(jc):
        T, X, Y, E = nbhd.tube(jc)
        emx = (1.0 / E) * scale  # e^{-s} with s = ln E + eps
        e2s = E * E * float(np.exp(2.0 * eps))
        sT, cT = jets.sin(T), jets.cos(T)
        return [
            emx * cT,
            emx * sT,
            e2s * (X * sT - Y * cT),
            e2s * (X * cT + Y * sT) * -1.0,
        ]

    def handle_exit_valid(pts: Array) -> Array:
        return pts[:, 0] ** 2 + pts[:, 1] ** 2 > inner_x2

    def base_entry_valid(pts: Array) -> Array:
        # the core (depth 0) lies on no face, and its tube coordinates are undefined
        ok = nbhd.depth(jets.seed(pts, order=0)).value > 0.0
        _, X, Y, logE = nbhd.tube_coords(pts[ok])
        ok[ok] = (logE > -eps) & (X * X + Y * Y < face_r2)
        return ok

    def outside_patch(pts: Array) -> Array:
        _, X, Y, _ = nbhd.tube_coords(pts)
        return X * X + Y * Y >= patch_r2

    patched = dataclasses.replace(base_cd, boundary_accept=outside_patch)

    base_chart = base_cd.chart
    transitions = [
        Transition(1, 0, SmoothMap(handle_cd.chart, base_chart, handle_to_base),
                   valid=handle_exit_valid),
        Transition(0, 1, SmoothMap(base_chart, handle_cd.chart, base_to_handle),
                   valid=base_entry_valid),
    ]
    return HamiltonianModel(
        name="attach_2handle",
        params={"base": base.spec_string, "eps": float(eps), "kappa": float(kappa)},
        charts=[patched, handle_cd],
        transitions=transitions,
        description="base model with a saddle block grafted along a closed boundary orbit",
        meta={
            "base_kind": nbhd.kind,
            "patch_radius2": patch_r2,
            "face_radius2": face_r2,
            "new_critical_index": 2,
            "collar": float(eps),
        },
    )
