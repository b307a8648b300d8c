"""Unit-disc cotangent bundle of the round 2-sphere, rotated about its axis.

Three charts cover the bundle: an equatorial strip in angle/height
coordinates (t, u) with conjugate momenta, and two polar caps in tangent-plane
coordinates (a, b) with theirs.  The circle action lifts the rotation about
the vertical axis; its moment map is the angular momentum.  Each chart
carries the kinetic-energy block metric of the round base, so the squared
cometric norm of the momentum cuts out the boundary cosphere bundle in every
chart by the same intrinsic inequality.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .chart import Chart, SmoothMap
from .forms import KForm, constant_form
from .model import (
    ChartData,
    HamiltonianModel,
    Transition,
    assert_moment,
    circle_action,
)

U_CHART = 0.8
U_HAND = 0.55
CAP_R2 = 0.75
CAP_HAND = 0.4


def _equator_chart_data() -> ChartData:
    def cosphere(jc):
        w = -(jc[1] * jc[1]) + 1.0
        return jc[2] * jc[2] / w + jc[3] * jc[3] * w - 1.0

    def strip_hi(jc):
        return jc[1] - U_CHART

    def strip_lo(jc):
        return -jc[1] - U_CHART

    chart = Chart(
        name="equator",
        coords=("t", "u", "pt", "pu"),
        periodic=(True, False, False, False),
        box_lo=(0.0, -U_CHART, -1.02, -1.72),
        box_hi=(2 * np.pi, U_CHART, 1.02, 1.72),
        domain=(strip_hi, strip_lo, cosphere),
        boundary=cosphere,
    )
    omega = constant_form(2, 4, {(0, 2): -1.0, (1, 3): -1.0})

    def hamiltonian(jc):
        return jc[2] * 1.0

    generator, action = circle_action({(0,): 1.0})

    def liouville(jc):
        zero = jets.constant(0.0, jc[0])
        return [zero, zero, jc[2], jc[3]]

    def alpha(jc):
        return {(0,): jc[2] * 1.0, (1,): jc[3] * 1.0}

    def metric(jc):
        w = -(jc[1] * jc[1]) + 1.0
        winv = 1.0 / w
        zero = jets.constant(0.0, jc[0])
        g = [[zero] * 4 for _ in range(4)]
        g[0][0] = w
        g[1][1] = winv
        g[2][2] = winv
        g[3][3] = w
        return g

    return ChartData(
        chart=chart,
        omega=omega,
        hamiltonian=hamiltonian,
        generator=generator,
        action=action,
        liouville=liouville,
        metric=metric,
        boundary_alpha=KForm(1, 4, alpha),
        note="angle/height strip away from the poles",
    )


def _cap_chart_data(name: str) -> ChartData:
    def cosphere(jc):
        a, b, pa, pb = jc
        vp = a * pa + b * pb
        return pa * pa + pb * pb - vp * vp - 1.0

    def disc(jc):
        return jc[0] * jc[0] + jc[1] * jc[1] - CAP_R2

    chart = Chart(
        name=name,
        coords=("a", "b", "pa", "pb"),
        periodic=(False, False, False, False),
        box_lo=(-0.87, -0.87, -2.05, -2.05),
        box_hi=(0.87, 0.87, 2.05, 2.05),
        domain=(disc, cosphere),
        boundary=cosphere,
    )
    omega = constant_form(2, 4, {(0, 2): -1.0, (1, 3): -1.0})

    def hamiltonian(jc):
        return jc[0] * jc[3] - jc[1] * jc[2]

    generator, action = circle_action({(0, 1): 1.0, (2, 3): 1.0})

    def liouville(jc):
        zero = jets.constant(0.0, jc[0])
        return [zero, zero, jc[2], jc[3]]

    def alpha(jc):
        return {(0,): jc[2] * 1.0, (1,): jc[3] * 1.0}

    def metric(jc):
        a, b = jc[0], jc[1]
        w = -(a * a) - b * b + 1.0
        zero = jets.constant(0.0, jc[0])
        g = [[zero] * 4 for _ in range(4)]
        g[0][0] = a * a / w + 1.0
        g[0][1] = g[1][0] = a * b / w
        g[1][1] = b * b / w + 1.0
        g[2][2] = -(a * a) + 1.0
        g[2][3] = g[3][2] = -(a * b)
        g[3][3] = -(b * b) + 1.0
        return g

    return ChartData(
        chart=chart,
        omega=omega,
        hamiltonian=hamiltonian,
        generator=generator,
        action=action,
        liouville=liouville,
        metric=metric,
        boundary_alpha=KForm(1, 4, alpha),
        note="tangent-plane cap around a pole",
    )


def _strip_to_cap(eq: Chart, cap: Chart, pole: float) -> SmoothMap:
    def fwd(jc):
        t, u, pt, pu = jc
        r = jets.sqrt(-(u * u) + 1.0)
        ct, st = jets.cos(t), jets.sin(t)
        a = r * ct
        b = r * st
        w = -(u * u) + 1.0
        pa = pt * b / w * -1.0 - pu * a / u
        pb = pt * a / w - pu * b / u
        return [a, b, pa, pb]

    return SmoothMap(source=eq, target=cap, forward=fwd)


def _cap_to_strip(cap: Chart, eq: Chart, pole: float) -> SmoothMap:
    def fwd(jc):
        a, b, pa, pb = jc
        t = jets.atan2(b, a)
        u = jets.sqrt(-(a * a) - b * b + 1.0) * pole
        pt = a * pb - b * pa
        w = -(u * u) + 1.0
        pu = (a * pa + b * pb) * u / w * -1.0
        return [t, u, pt, pu]

    return SmoothMap(source=cap, target=eq, forward=fwd)


def cotangent_s2() -> HamiltonianModel:
    """Axis rotation lifted to the unit-disc cotangent bundle of the sphere."""
    eq = _equator_chart_data()
    north = _cap_chart_data("north")
    south = _cap_chart_data("south")

    for cd in (eq, north, south):
        assert_moment(cd)

    def north_side(pts):
        return pts[:, 1] >= U_HAND

    def south_side(pts):
        return pts[:, 1] <= -U_HAND

    def off_pole(pts):
        return pts[:, 0] ** 2 + pts[:, 1] ** 2 >= CAP_HAND

    transitions = [
        Transition(0, 1, _strip_to_cap(eq.chart, north.chart, +1.0), valid=north_side),
        Transition(0, 2, _strip_to_cap(eq.chart, south.chart, -1.0), valid=south_side),
        Transition(1, 0, _cap_to_strip(north.chart, eq.chart, +1.0), valid=off_pole),
        Transition(2, 0, _cap_to_strip(south.chart, eq.chart, -1.0), valid=off_pole),
    ]
    return HamiltonianModel(
        name="cotangent_s2",
        params={},
        charts=[eq, north, south],
        transitions=transitions,
        description="lifted axis rotation of the round sphere's cotangent disc bundle",
    )
