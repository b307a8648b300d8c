"""Disc-bundle quotient of a circle-invariant 5-dimensional total space.

Two presentations of the same construction live side by side in one model:

* Two 5-dimensional "total" charts carry a closed, maximally nondegenerate
  2-form with a known kernel line field, a residual circle action, and an
  explicit scaling field.  There is no metric or boundary there; the checks
  that need them are skipped, while closedness, invariance, and the kernel
  are machine-checked directly in 5 dimensions.
* Three 4-dimensional quotient charts (an equatorial band and two polar
  caps) present the reduced space: a disc bundle over the sphere whose
  fibers the circle rotates.  These charts carry the full package, including
  a compatible metric assembled from the connection splitting.

The projection maps from total to quotient charts are exposed in
``meta["projections"]`` so the pullback identity tying the two presentations
together can be tested point-wise.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .chart import Chart, SmoothMap
from .forms import KForm
from .model import (
    ChartData,
    HamiltonianModel,
    Transition,
    assert_moment,
    circle_action,
)

H_CHART = 0.8
H_HAND = 0.3
CAP_R2 = 0.75
CAP_HAND = 0.25
RHO_MARGIN = 0.2


def _band_chart_data() -> ChartData:
    def shell(jc):
        return jc[2] * jc[2] + jc[3] * jc[3] - 1.0

    def band_hi(jc):
        return jc[1] - H_CHART

    def band_lo(jc):
        return -jc[1] - H_CHART

    chart = Chart(
        name="band",
        coords=("phi", "h", "w1", "w2"),
        periodic=(True, False, False, False),
        box_lo=(0.0, -H_CHART, -1.02, -1.02),
        box_hi=(2 * np.pi, H_CHART, 1.02, 1.02),
        domain=(band_hi, band_lo, shell),
        boundary=shell,
    )

    def conn(jc):
        return (1.0 - jc[1]) * 0.5

    def omega(jc):
        w1, w2 = jc[2], jc[3]
        rho2 = w1 * w1 + w2 * w2
        a1 = conn(jc)
        return {
            (0, 1): (rho2 + 1.0) * 0.25,
            (2, 3): jets.constant(1.0, jc[0]) * 1.0,
            (0, 2): -(a1 * w1),
            (0, 3): -(a1 * w2),
        }

    def hamiltonian(jc):
        return (jc[2] * jc[2] + jc[3] * jc[3]) * 0.5

    generator, action = circle_action({(2, 3): 1.0})

    def liouville(jc):
        zero = jets.constant(0.0, jc[0])
        rho2 = jc[2] * jc[2] + jc[3] * jc[3]
        q = (rho2 + 1.0) / (rho2 * 2.0)
        return [zero, zero, q * jc[2], q * jc[3]]

    def alpha(jc):
        w1, w2 = jc[2], jc[3]
        rho2 = w1 * w1 + w2 * w2
        q = (rho2 + 1.0) / (rho2 * 2.0)
        return {
            (0,): conn(jc) * (rho2 + 1.0) * 0.5,
            (2,): -(q * w2),
            (3,): q * w1,
        }

    def off_axis(jc):
        return -(jc[2] * jc[2]) - jc[3] * jc[3] + RHO_MARGIN**2

    def metric(jc):
        w1, w2 = jc[2], jc[3]
        rho2 = w1 * w1 + w2 * w2
        a1 = conn(jc)
        c = (rho2 + 1.0) * 0.25
        one = jets.constant(1.0, jc[0])
        zero = jets.constant(0.0, jc[0])
        g = [[zero] * 4 for _ in range(4)]
        g[0][0] = c + rho2 * a1 * a1
        g[1][1] = c * 1.0
        g[2][2] = one
        g[3][3] = one * 1.0
        g[0][2] = g[2][0] = -(a1 * w2)
        g[0][3] = g[3][0] = a1 * w1
        return g

    return ChartData(
        chart=chart,
        omega=KForm(2, 4, omega),
        hamiltonian=hamiltonian,
        generator=generator,
        action=action,
        liouville=liouville,
        metric=metric,
        boundary_alpha=KForm(1, 4, alpha),
        liouville_domain=(off_axis,),
        note="equatorial band of the quotient disc bundle",
    )


def _cap_chart_data(name: str, south: bool) -> ChartData:
    sgn = -1.0 if south else 1.0

    def shell(jc):
        return jc[2] * jc[2] + jc[3] * jc[3] - 1.0

    def disc(jc):
        return jc[0] * jc[0] + jc[1] * jc[1] - CAP_R2

    chart = Chart(
        name=name,
        coords=("a", "b", "w1", "w2"),
        periodic=(False, False, False, False),
        box_lo=(-0.87, -0.87, -1.02, -1.02),
        box_hi=(0.87, 0.87, 1.02, 1.02),
        domain=(disc, shell),
        boundary=shell,
    )

    def conn_ab(jc):
        # connection 1-form components (A_a, A_b) in this trivialization
        return (jc[1] * (-0.5 * sgn), jc[0] * (0.5 * sgn))

    def omega(jc):
        a, b, w1, w2 = jc
        aa, ab = conn_ab(jc)
        rho2 = w1 * w1 + w2 * w2
        c2 = (rho2 + 1.0) * (0.5 * sgn)
        return {
            (0, 1): c2,
            (2, 3): jets.constant(1.0, jc[0]) * 1.0,
            (0, 2): -(w1 * aa),
            (1, 2): -(w1 * ab),
            (0, 3): -(w2 * aa),
            (1, 3): -(w2 * ab),
        }

    def hamiltonian(jc):
        return (jc[2] * jc[2] + jc[3] * jc[3]) * 0.5

    generator, action = circle_action({(2, 3): 1.0})

    def liouville(jc):
        zero = jets.constant(0.0, jc[0])
        rho2 = jc[2] * jc[2] + jc[3] * jc[3]
        q = (rho2 + 1.0) / (rho2 * 2.0)
        return [zero, zero, q * jc[2], q * jc[3]]

    def alpha(jc):
        w1, w2 = jc[2], jc[3]
        aa, ab = conn_ab(jc)
        rho2 = w1 * w1 + w2 * w2
        q = (rho2 + 1.0) / (rho2 * 2.0)
        half = (rho2 + 1.0) * 0.5
        return {
            (0,): half * aa,
            (1,): half * ab,
            (2,): -(q * w2),
            (3,): q * w1,
        }

    def off_axis(jc):
        return -(jc[2] * jc[2]) - jc[3] * jc[3] + RHO_MARGIN**2

    def metric(jc):
        a, b, w1, w2 = jc
        aa, ab = conn_ab(jc)
        rho2 = w1 * w1 + w2 * w2
        c2 = (rho2 + 1.0) * 0.5
        one = jets.constant(1.0, jc[0])
        zero = jets.constant(0.0, jc[0])
        g = [[zero] * 4 for _ in range(4)]
        g[0][0] = c2 + rho2 * aa * aa
        g[1][1] = c2 + rho2 * ab * ab
        g[0][1] = g[1][0] = rho2 * aa * ab
        g[2][2] = one
        g[3][3] = one * 1.0
        g[0][2] = g[2][0] = -(w2 * aa)
        g[1][2] = g[2][1] = -(w2 * ab)
        g[0][3] = g[3][0] = w1 * aa
        g[1][3] = g[3][1] = w1 * ab
        return g

    return ChartData(
        chart=chart,
        omega=KForm(2, 4, omega),
        hamiltonian=hamiltonian,
        generator=generator,
        action=action,
        liouville=liouville,
        metric=metric,
        boundary_alpha=KForm(1, 4, alpha),
        liouville_domain=(off_axis,),
        note="polar cap of the quotient disc bundle",
    )


def _total_chart_data(name: str, south: bool) -> ChartData:
    sgn = -1.0 if south else 1.0

    def band_hi(jc):
        return jc[1] - H_CHART

    def band_lo(jc):
        return -jc[1] - H_CHART

    def rho_hi(jc):
        return jc[3] - 0.999

    def rho_lo(jc):
        return -jc[3] + 0.001

    chart = Chart(
        name=name,
        coords=("phi", "h", "psi", "rho", "t"),
        periodic=(True, False, True, False, True),
        box_lo=(0.0, -H_CHART, 0.0, 0.001, 0.0),
        box_hi=(2 * np.pi, H_CHART, 2 * np.pi, 0.999, 2 * np.pi),
        domain=(band_hi, band_lo, rho_hi, rho_lo),
        boundary=None,
    )

    def conn(jc):
        # connection coefficient in front of d(phi) for this trivialization
        if south:
            return (jc[1] + 1.0) * -0.5
        return (1.0 - jc[1]) * 0.5

    def omega(jc):
        rho = jc[3]
        a1 = conn(jc)
        dconn = -0.5  # d(conn)/dh, the same in both trivializations
        return {
            (2, 3): -rho,
            (0, 3): -(rho * a1),
            (3, 4): rho * 1.0,
            (0, 1): (rho * rho + 1.0) * (-0.5 * dconn),
        }

    def hamiltonian(jc):
        return jc[3] * jc[3] * 0.5

    generator, action = circle_action({(4,): 1.0})

    def liouville(jc):
        zero = jets.constant(0.0, jc[0])
        rho = jc[3]
        return [zero, zero, zero, (rho * rho + 1.0) / (rho * 2.0), zero]

    def kernel(jc):
        zero = jets.constant(0.0, jc[0])
        one = jets.constant(1.0, jc[0])
        return [zero, zero, -one, zero, one * 1.0]

    def alpha(jc):
        rho = jc[3]
        half = (rho * rho + 1.0) * 0.5
        return {(2,): half, (0,): half * conn(jc), (4,): half * 1.0}

    return ChartData(
        chart=chart,
        omega=KForm(2, 5, omega),
        hamiltonian=hamiltonian,
        generator=generator,
        action=action,
        liouville=liouville,
        metric=None,
        boundary_alpha=KForm(1, 5, alpha),
        kernel=kernel,
        kernel_complement=(0, 1, 3, 4),
        note="invariant total space above the quotient",
    )


def _band_to_cap(band: Chart, cap: Chart, south: bool) -> SmoothMap:
    def fwd(jc):
        phi, h, w1, w2 = jc
        r = jets.sqrt(h * -1.0 + 1.0) if not south else jets.sqrt(h + 1.0)
        a = r * jets.cos(phi)
        b = r * jets.sin(phi)
        if south:
            u1, u2 = w1 * jets.cos(phi) - w2 * jets.sin(phi), w1 * jets.sin(phi) + w2 * jets.cos(phi)
        else:
            u1, u2 = w1 * 1.0, w2 * 1.0
        return [a, b, u1, u2]

    return SmoothMap(source=band, target=cap, forward=fwd)


def _cap_to_band(cap: Chart, band: Chart, south: bool) -> SmoothMap:
    def fwd(jc):
        a, b, u1, u2 = jc
        phi = jets.atan2(b, a)
        r2 = a * a + b * b
        h = (1.0 - r2) if not south else (r2 - 1.0)
        if south:
            w1 = u1 * jets.cos(phi) + u2 * jets.sin(phi)
            w2 = u2 * jets.cos(phi) - u1 * jets.sin(phi)
        else:
            w1, w2 = u1 * 1.0, u2 * 1.0
        return [phi, h, w1, w2]

    return SmoothMap(source=cap, target=band, forward=fwd)


def _projection(total: Chart, band: Chart, south: bool) -> SmoothMap:
    def fwd(jc):
        phi, h, psi, rho, t = jc
        chi = psi + t if not south else psi + t - phi
        return [phi * 1.0, h * 1.0, rho * jets.cos(chi), rho * jets.sin(chi)]

    return SmoothMap(source=total, target=band, forward=fwd)


def prequantization_s2() -> HamiltonianModel:
    """Disc-bundle quotient of an invariant 5-space over the sphere."""
    band = _band_chart_data()
    cap_n = _cap_chart_data("cap_north", south=False)
    cap_s = _cap_chart_data("cap_south", south=True)
    total_n = _total_chart_data("total_north", south=False)
    total_s = _total_chart_data("total_south", south=True)

    for cd in (band, cap_n, cap_s, total_n, total_s):
        assert_moment(cd)

    def north_side(pts):
        return pts[:, 1] >= H_HAND

    def south_side(pts):
        return pts[:, 1] <= -H_HAND

    def off_pole(pts):
        return pts[:, 0] ** 2 + pts[:, 1] ** 2 >= CAP_HAND

    def anywhere(pts):
        return np.ones(pts.shape[0], dtype=bool)

    def psi_shift(direction):
        def fwd(jc):
            return [jc[0], jc[1], jc[2] + direction * jc[0], jc[3], jc[4]]

        return fwd

    transitions = [
        Transition(0, 1, _band_to_cap(band.chart, cap_n.chart, south=False), valid=north_side),
        Transition(0, 2, _band_to_cap(band.chart, cap_s.chart, south=True), valid=south_side),
        Transition(1, 0, _cap_to_band(cap_n.chart, band.chart, south=False), valid=off_pole),
        Transition(2, 0, _cap_to_band(cap_s.chart, band.chart, south=True), valid=off_pole),
        Transition(
            3, 4,
            SmoothMap(source=total_n.chart, target=total_s.chart, forward=psi_shift(+1.0)),
            valid=anywhere,
        ),
        Transition(
            4, 3,
            SmoothMap(source=total_s.chart, target=total_n.chart, forward=psi_shift(-1.0)),
            valid=anywhere,
        ),
    ]
    model = HamiltonianModel(
        name="prequantization_s2",
        params={},
        charts=[band, cap_n, cap_s, total_n, total_s],
        transitions=transitions,
        description="sphere disc-bundle quotient of an invariant contact-type 5-space",
    )
    model.meta["projections"] = [
        (3, 0, _projection(total_n.chart, band.chart, south=False)),
        (4, 0, _projection(total_s.chart, band.chart, south=True)),
    ]
    return model
