"""Weighted rotation on a one-point blow-up of the 4-ball.

Three coordinate charts cover the blown-up ball.  Two core charts map down
to the flat ball by polynomial blow-downs and carry the flat 2-form plus
``size^2`` times a sphere-area correction; a rim chart covers a collar of
the boundary in blown-down coordinates, where every piece of data is
exactly the flat one.  The correction is faded out by a C^2 ramp in the
blown-down squared radius before the rim begins, so all charts agree
exactly on their overlaps, the boundary inherits the round contact
structure, and the expanding field near the boundary is radial.  The
2-form still carries positive area on the core sphere, so no global
primitive exists; each core chart stores its own primitive and the induced
expanding field is chart-local.  Core metrics are the Kahler pairing of
the 2-form with the standard complex structure, so compatibility is
structural rather than tuned.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .chart import Chart, SmoothMap
from .errors import SurfaceBlowupUnsupported
from .forms import KForm, add_forms, constant_form, exterior_derivative, pullback, scale_form
from .jets import Jet
from .linalg import solve_spd_jet
from .model import (
    ChartData,
    HamiltonianModel,
    Transition,
    assert_moment,
    circle_action,
    effective_weights,
    form_matrix_jets,
    identity_metric,
)

V_CAP2 = 1.44
V_HAND2 = 0.7

# blown-down squared radius where the sphere correction starts fading and
# where it has vanished entirely; the rim chart begins past the fade band
_FADE_LO = 0.40
_FADE_HI = 0.85
_RIM_LO = 0.87
_CORE_HI = 0.93
_RIM_IN = 0.88
_CORE_IN = 0.92

# standard complex structure: (x, y) -> (-y, x) per coordinate pair
_J0 = np.array(
    [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]]
)

_DOWN = Chart(
    name="downstairs",
    coords=("x1", "y1", "x2", "y2"),
    periodic=(False, False, False, False),
    box_lo=(-2.0,) * 4,
    box_hi=(2.0,) * 4,
)

_OMEGA_FLAT = constant_form(2, 4, {(0, 1): 1.0, (2, 3): 1.0})


def _alpha_flat(jc):
    return {(0,): jc[1] * -0.5, (1,): jc[0] * 0.5, (2,): jc[3] * -0.5, (3,): jc[2] * 0.5}


ALPHA_FLAT = KForm(1, 4, _alpha_flat)


def _complex_mul(a1, a2, b1, b2):
    return a1 * b1 - a2 * b2, a1 * b2 + a2 * b1


def _blowdown_inner(chart: Chart) -> SmoothMap:
    # (u, v) -> (u, u v): the first factor survives, the second is scaled
    def fwd(jc):
        z1, z2 = _complex_mul(jc[0], jc[1], jc[2], jc[3])
        return [jc[0] * 1.0, jc[1] * 1.0, z1, z2]

    return SmoothMap(source=chart, target=_DOWN, forward=fwd)


def _blowdown_outer(chart: Chart) -> SmoothMap:
    # (p, q) -> (p q, q)
    def fwd(jc):
        z1, z2 = _complex_mul(jc[0], jc[1], jc[2], jc[3])
        return [z1, z2, jc[2] * 1.0, jc[3] * 1.0]

    return SmoothMap(source=chart, target=_DOWN, forward=fwd)


def _fubini_study(scale2: float, first_pair: bool) -> KForm:
    i, j = (0, 1) if first_pair else (2, 3)

    def coeffs(jc):
        r2 = jc[i] * jc[i] + jc[j] * jc[j]
        den = (r2 + 1.0) * (r2 + 1.0)
        return {(i, j): 2.0 * scale2 / den}

    return KForm(2, 4, coeffs)


def _round_primitive(scale2: float, first_pair: bool) -> KForm:
    i, j = (0, 1) if first_pair else (2, 3)

    def coeffs(jc):
        r2 = jc[i] * jc[i] + jc[j] * jc[j]
        q = scale2 / (r2 + 1.0)
        return {(i,): -(q * jc[j]), (j,): q * jc[i]}

    return KForm(1, 4, coeffs)


def _fade(njet: Jet) -> Jet:
    """C2 ramp in the blown-down squared radius: 1 in the core, 0 past the band."""
    s = njet.value
    width = _FADE_HI - _FADE_LO
    t = np.clip((s - _FADE_LO) / width, 0.0, 1.0)
    val = 1.0 - t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)
    inside = (s > _FADE_LO) & (s < _FADE_HI)
    slope = np.where(inside, -30.0 * t * t * (1.0 - t) ** 2 / width, 0.0)
    curve = np.where(inside, -60.0 * t * (1.0 - t) * (1.0 - 2.0 * t) / width**2, 0.0)
    return jets._lift(njet, val, slope, curve)


def _freeze_dead(r2: Jet, live) -> Jet:
    # replace the angular-pair radius by 1 where the fade already vanishes,
    # so the angular term never divides by zero along the core sphere
    val = np.where(live, r2.value, 1.0)
    grad = None if r2.grad is None else np.where(live[:, None], r2.grad, 0.0)
    hess = None if r2.hess is None else np.where(live[:, None, None], r2.hess, 0.0)
    return Jet(val, grad, hess)


def _faded_primitive(scale2: float, angular_first: bool, n_down) -> KForm:
    """Primitive of the sphere-area correction, ramped off before the rim.

    Away from the core sphere the correction is exact, with a blown-down
    primitive that splits into the round primitive of the far pair plus
    ``scale2`` times the angular form of the blown-down pair.  Both chart
    expressions pull back from the same form downstairs, so subtracting the
    exterior derivative of this form leaves the charts in exact agreement
    while making the 2-form flat past the fade band.
    """
    a, b = (0, 1) if angular_first else (2, 3)
    c, d = (2, 3) if angular_first else (0, 1)

    def coeffs(jc):
        n = n_down(jc)
        ramp = _fade(n) * -1.0 + 1.0
        r2 = _freeze_dead(jc[a] * jc[a] + jc[b] * jc[b], n.value > _FADE_LO)
        qa = ramp * scale2 / r2
        far2 = jc[c] * jc[c] + jc[d] * jc[d]
        qf = ramp * scale2 / (far2 + 1.0)
        return {
            (a,): qa * jc[b] * -1.0,
            (b,): qa * jc[a],
            (c,): qf * jc[d] * -1.0,
            (d,): qf * jc[c],
        }

    return KForm(1, 4, coeffs)


def _kahler_metric(omega: KForm):
    def metric(jc):
        om = form_matrix_jets(omega, jc)
        return [
            [sum((om[i][k] * _J0[k, j] for k in range(4) if _J0[k, j] != 0.0), jc[0] * 0.0)
             for j in range(4)]
            for i in range(4)
        ]

    return metric


def _dual_liouville(lam: KForm, metric):
    def field(jc):
        g = metric(jc)
        coeffs = lam.coefficients(jc)
        zero = jc[0] * 0.0
        lvec = [coeffs.get((i,), zero) for i in range(4)]
        rhs = [
            sum((lvec[k] * (-_J0[i, k]) for k in range(4) if _J0[i, k] != 0.0), zero)
            for i in range(4)
        ]
        return solve_spd_jet(g, rhs)

    return field


def blowup_d4(m: int = 1, n: int = -1, size: float = 0.2) -> HamiltonianModel:
    """Blow up the origin of a weight-(m, n) rotated 4-ball."""
    m, n = int(m), int(n)
    if m == 0 or n == 0:
        raise SurfaceBlowupUnsupported(
            "a zero weight fixes a whole coordinate plane through the center; "
            "blowing up a point of a fixed surface is not supported"
        )
    effective_weights(m, n)
    if not (0 < size <= 0.3):
        raise ValueError(f"size must lie in (0, 0.3], got {size}")
    eps2 = float(size) ** 2
    fm, fn = float(m), float(n)

    # ---- inner core chart: sphere at u = 0 ------------------------------
    def n_inner(jc):
        return (jc[0] * jc[0] + jc[1] * jc[1]) * (jc[2] * jc[2] + jc[3] * jc[3] + 1.0)

    def rim_gap_i(jc):
        return n_inner(jc) - _CORE_HI

    def vcap(jc):
        return jc[2] * jc[2] + jc[3] * jc[3] - V_CAP2

    inner = Chart(
        name="inner",
        coords=("u1", "u2", "v1", "v2"),
        periodic=(False,) * 4,
        box_lo=(-0.98, -0.98, -1.22, -1.22),
        box_hi=(0.98, 0.98, 1.22, 1.22),
        domain=(rim_gap_i, vcap),
    )
    down_i = _blowdown_inner(inner)
    psi_i = _faded_primitive(eps2, angular_first=True, n_down=n_inner)
    omega_i = add_forms(
        add_forms(pullback(down_i, _OMEGA_FLAT), _fubini_study(eps2, first_pair=False)),
        scale_form(exterior_derivative(psi_i), -1.0),
    )
    lam_i = add_forms(
        add_forms(pullback(down_i, ALPHA_FLAT), _round_primitive(eps2, first_pair=False)),
        scale_form(psi_i, -1.0),
    )

    def ham_i(jc):
        u2 = jc[0] * jc[0] + jc[1] * jc[1]
        v2 = jc[2] * jc[2] + jc[3] * jc[3]
        lifted = v2 / (v2 + 1.0) * (eps2 * (fn - fm)) + eps2 * fm
        return u2 * (fm / 2) + u2 * v2 * (fn / 2) + _fade(n_inner(jc)) * lifted

    gen_i, act_i = circle_action({(0, 1): fm, (2, 3): fn - fm})

    metric_i = _kahler_metric(omega_i)
    cd_inner = ChartData(
        chart=inner,
        omega=omega_i,
        hamiltonian=ham_i,
        generator=gen_i,
        action=act_i,
        liouville=_dual_liouville(lam_i, metric_i),
        metric=metric_i,
        boundary_alpha=lam_i,
        note="core chart containing the replacement sphere as its v-axis",
    )

    # ---- outer core chart: the rest of the sphere at p = 0 --------------
    def n_outer(jc):
        return (jc[2] * jc[2] + jc[3] * jc[3]) * (jc[0] * jc[0] + jc[1] * jc[1] + 1.0)

    def rim_gap_o(jc):
        return n_outer(jc) - _CORE_HI

    def pcap(jc):
        return jc[0] * jc[0] + jc[1] * jc[1] - V_CAP2

    outer = Chart(
        name="outer",
        coords=("p1", "p2", "q1", "q2"),
        periodic=(False,) * 4,
        box_lo=(-1.22, -1.22, -0.98, -0.98),
        box_hi=(1.22, 1.22, 0.98, 0.98),
        domain=(rim_gap_o, pcap),
    )
    down_o = _blowdown_outer(outer)
    psi_o = _faded_primitive(eps2, angular_first=False, n_down=n_outer)
    omega_o = add_forms(
        add_forms(pullback(down_o, _OMEGA_FLAT), _fubini_study(eps2, first_pair=True)),
        scale_form(exterior_derivative(psi_o), -1.0),
    )
    lam_o = add_forms(
        add_forms(pullback(down_o, ALPHA_FLAT), _round_primitive(eps2, first_pair=True)),
        scale_form(psi_o, -1.0),
    )

    def ham_o(jc):
        p2 = jc[0] * jc[0] + jc[1] * jc[1]
        q2 = jc[2] * jc[2] + jc[3] * jc[3]
        lifted = 1.0 / (p2 + 1.0) * (eps2 * (fn - fm)) + eps2 * fm
        return p2 * q2 * (fm / 2) + q2 * (fn / 2) + _fade(n_outer(jc)) * lifted

    gen_o, act_o = circle_action({(0, 1): fm - fn, (2, 3): fn})

    metric_o = _kahler_metric(omega_o)
    cd_outer = ChartData(
        chart=outer,
        omega=omega_o,
        hamiltonian=ham_o,
        generator=gen_o,
        action=act_o,
        liouville=_dual_liouville(lam_o, metric_o),
        metric=metric_o,
        boundary_alpha=lam_o,
        note="core chart containing the rest of the replacement sphere at p = 0",
    )

    # ---- rim chart: boundary collar in blown-down coordinates -----------
    def rim_ball(jc):
        return jc[0] * jc[0] + jc[1] * jc[1] + jc[2] * jc[2] + jc[3] * jc[3] - 1.0

    def rim_core_gap(jc):
        return -(jc[0] * jc[0] + jc[1] * jc[1] + jc[2] * jc[2] + jc[3] * jc[3]) + _RIM_LO

    rim = Chart(
        name="rim",
        coords=("x1", "y1", "x2", "y2"),
        periodic=(False,) * 4,
        box_lo=(-1.01,) * 4,
        box_hi=(1.01,) * 4,
        domain=(rim_ball, rim_core_gap),
        boundary=rim_ball,
    )

    def ham_rim(jc):
        r1 = jc[0] * jc[0] + jc[1] * jc[1]
        r2 = jc[2] * jc[2] + jc[3] * jc[3]
        return r1 * (fm / 2) + r2 * (fn / 2)

    gen_rim, act_rim = circle_action({(0, 1): fm, (2, 3): fn})

    def liouville_rim(jc):
        return [jc[0] * 0.5, jc[1] * 0.5, jc[2] * 0.5, jc[3] * 0.5]

    cd_rim = ChartData(
        chart=rim,
        omega=_OMEGA_FLAT,
        hamiltonian=ham_rim,
        generator=gen_rim,
        action=act_rim,
        liouville=liouville_rim,
        metric=identity_metric(4),
        boundary_alpha=ALPHA_FLAT,
        note="boundary collar where all data equal the flat ball's",
    )

    for cd in (cd_inner, cd_outer, cd_rim):
        assert_moment(cd)

    def inner_far(pts):
        return pts[:, 2] ** 2 + pts[:, 3] ** 2 >= V_HAND2

    def outer_far(pts):
        return pts[:, 0] ** 2 + pts[:, 1] ** 2 >= V_HAND2

    def inner_near_rim(pts):
        return (pts[:, 0] ** 2 + pts[:, 1] ** 2) * (
            1.0 + pts[:, 2] ** 2 + pts[:, 3] ** 2
        ) >= _RIM_IN

    def outer_near_rim(pts):
        return (pts[:, 2] ** 2 + pts[:, 3] ** 2) * (
            1.0 + pts[:, 0] ** 2 + pts[:, 1] ** 2
        ) >= _RIM_IN

    def rim_over_inner(pts):
        z1 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        z2 = pts[:, 2] ** 2 + pts[:, 3] ** 2
        return (z1 + z2 <= _CORE_IN) & (z2 <= 1.38 * z1)

    def rim_over_outer(pts):
        z1 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        z2 = pts[:, 2] ** 2 + pts[:, 3] ** 2
        return (z1 + z2 <= _CORE_IN) & (z1 <= 1.38 * z2)

    def inner_to_outer(jc):
        v2 = jc[2] * jc[2] + jc[3] * jc[3]
        p1 = jc[2] / v2
        p2 = -(jc[3] / v2)
        q1, q2 = _complex_mul(jc[0], jc[1], jc[2], jc[3])
        return [p1, p2, q1, q2]

    def outer_to_inner(jc):
        p2n = jc[0] * jc[0] + jc[1] * jc[1]
        v1 = jc[0] / p2n
        v2 = -(jc[1] / p2n)
        u1, u2 = _complex_mul(jc[0], jc[1], jc[2], jc[3])
        return [u1, u2, v1, v2]

    def inner_to_rim(jc):
        z1, z2 = _complex_mul(jc[0], jc[1], jc[2], jc[3])
        return [jc[0] * 1.0, jc[1] * 1.0, z1, z2]

    def outer_to_rim(jc):
        z1, z2 = _complex_mul(jc[0], jc[1], jc[2], jc[3])
        return [z1, z2, jc[2] * 1.0, jc[3] * 1.0]

    def rim_to_inner(jc):
        r2 = jc[0] * jc[0] + jc[1] * jc[1]
        c1 = jc[0] / r2
        c2 = -(jc[1] / r2)
        v1, v2 = _complex_mul(jc[2], jc[3], c1, c2)
        return [jc[0] * 1.0, jc[1] * 1.0, v1, v2]

    def rim_to_outer(jc):
        r2 = jc[2] * jc[2] + jc[3] * jc[3]
        c1 = jc[2] / r2
        c2 = -(jc[3] / r2)
        p1, p2 = _complex_mul(jc[0], jc[1], c1, c2)
        return [p1, p2, jc[2] * 1.0, jc[3] * 1.0]

    transitions = [
        Transition(0, 1, SmoothMap(inner, outer, inner_to_outer), valid=inner_far),
        Transition(1, 0, SmoothMap(outer, inner, outer_to_inner), valid=outer_far),
        Transition(0, 2, SmoothMap(inner, rim, inner_to_rim), valid=inner_near_rim),
        Transition(2, 0, SmoothMap(rim, inner, rim_to_inner), valid=rim_over_inner),
        Transition(1, 2, SmoothMap(outer, rim, outer_to_rim), valid=outer_near_rim),
        Transition(2, 1, SmoothMap(rim, outer, rim_to_outer), valid=rim_over_outer),
    ]
    return HamiltonianModel(
        name="blowup_d4",
        params={"m": m, "n": n, "size": float(size)},
        charts=[cd_inner, cd_outer, cd_rim],
        transitions=transitions,
        description="weighted ball rotation after blowing up the center",
        meta={
            "center_values": (eps2 * m, eps2 * n),
            "sphere_weight": abs(n - m),
        },
    )
