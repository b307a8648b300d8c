"""Weighted rotation on a one-point blow-up of the 4-ball.

Three coordinate charts cover the blown-up ball.  Two core charts map down
to the flat ball by polynomial blow-downs and carry the flat 2-form plus
``size^2`` times a sphere-area correction; a rim chart covers a collar of
the boundary in blown-down coordinates, and is the flat ball's chart data
on that collar.  Each core chart keeps one coordinate pair k and scales the
other, (k, s) -> (k, k s); the kept pair fixes the chart's domain, forms,
metric and weights.  The correction is faded out by a C^2 ramp in the
blown-down squared radius before the rim begins, so all charts agree
exactly on their overlaps, the boundary inherits the round contact
structure, and the expanding field near the boundary is radial.  The
2-form still carries positive area on the core sphere, so no global
primitive exists; each core chart solves its expanding field from its own
primitive, so the field, and the contact form i_Y omega it gives back, are
chart-local.  Core metrics are the Kahler pairing of
the 2-form with the standard complex structure, so compatibility is
structural rather than tuned.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import jets
from .basic import disc_d4
from .chart import Chart, SmoothMap
from .errors import SurfaceBlowupUnsupported
from .forms import KForm, _acc, d_coeffs, image_jacobian, image_seed, pullback_coeffs
from .jets import Jet
from .linalg import solve_spd_jet
from .model import (
    ChartData,
    HamiltonianModel,
    Transition,
    assert_moment,
    form_matrix_jets,
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


def _r2(jc, pair):
    i, j = pair
    return jc[i] * jc[i] + jc[j] * jc[j]


def _blown_down_r2(jc, keep, scaled):
    """Squared radius |k|^2 (|s|^2 + 1) of a core chart point's blow-down."""
    return _r2(jc, keep) * (_r2(jc, scaled) + 1.0)


def _complex_mul(a1, a2, b1, b2):
    return a1 * b1 - a2 * b2, a1 * b2 + a2 * b1


def _assemble(keep, scaled, kept, moved) -> list:
    """Four coordinates: ``kept`` on the pair ``keep``, ``moved`` on ``scaled``."""
    out = [None] * 4
    (out[keep[0]], out[keep[1]]), (out[scaled[0]], out[scaled[1]]) = kept, moved
    return out


def _blowdown(keep, scaled):
    # core -> rim: (k, s) -> (k, k s)
    def fwd(jc):
        return _assemble(keep, scaled, (jc[keep[0]] * 1.0, jc[keep[1]] * 1.0), _complex_mul(*jc))

    return fwd


def _swap(keep, scaled):
    # core -> other core, which keeps this chart's scaled pair: (k, s) -> (1/s, k s)
    def fwd(jc):
        r2 = _r2(jc, scaled)
        inv = (jc[scaled[0]] / r2, -(jc[scaled[1]] / r2))
        return _assemble(keep, scaled, inv, _complex_mul(*jc))

    return fwd


def _lift(keep, scaled):
    # rim -> core keeping ``keep``: (z_k, z_s) -> (z_k, z_s / z_k)
    def fwd(jc):
        r2 = _r2(jc, keep)
        c1, c2 = jc[keep[0]] / r2, -(jc[keep[1]] / r2)
        moved = _complex_mul(jc[scaled[0]], jc[scaled[1]], c1, c2)
        return _assemble(keep, scaled, (jc[keep[0]] * 1.0, jc[keep[1]] * 1.0), moved)

    return fwd


def _far(scaled):
    # core -> other core: |s|^2 large enough that 1/s lies in the other core's cap
    def valid(pts):
        return pts[:, scaled[0]] ** 2 + pts[:, scaled[1]] ** 2 >= V_HAND2

    return valid


def _near_rim(keep, scaled):
    # core -> rim: blown-down squared radius inside the rim chart
    def valid(pts):
        kept = pts[:, keep[0]] ** 2 + pts[:, keep[1]] ** 2
        return kept * (1.0 + pts[:, scaled[0]] ** 2 + pts[:, scaled[1]] ** 2) >= _RIM_IN

    return valid


def _over_core(keep, scaled):
    # rim -> core: inside the core band, the lifted |s|^2 <= 1.38 inside the cap
    def valid(pts):
        zk = pts[:, keep[0]] ** 2 + pts[:, keep[1]] ** 2
        zs = pts[:, scaled[0]] ** 2 + pts[:, scaled[1]] ** 2
        return (zk + zs <= _CORE_IN) & (zs <= 1.38 * zk)

    return valid


def _fubini_study(scale2: float, pair):
    i, j = pair

    def coeffs(jc):
        r2 = _r2(jc, pair)
        den = (r2 + 1.0) * (r2 + 1.0)
        return {(i, j): 2.0 * scale2 / den}

    return coeffs


def _round_primitive(scale2: float, pair):
    i, j = pair

    def coeffs(jc):
        r2 = _r2(jc, pair)
        q = scale2 / (r2 + 1.0)
        return {(i,): -(q * jc[j]), (j,): q * jc[i]}

    return coeffs


def _fade(njet: Jet) -> Jet:
    """C2 ramp in the blown-down squared radius: 1 in the core, 0 past the band."""
    s = njet.value
    width = _FADE_HI - _FADE_LO
    t = np.clip((s - _FADE_LO) / width, 0.0, 1.0)
    val = 1.0 - t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)
    inside = (s > _FADE_LO) & (s < _FADE_HI)
    slope = np.where(inside, -30.0 * t * t * (1.0 - t) ** 2 / width, 0.0)
    curve = np.where(inside, -60.0 * t * (1.0 - t) * (1.0 - 2.0 * t) / width**2, 0.0)
    return jets._lift(njet, val, lambda: (slope, curve))


def _freeze_dead(r2: Jet, live) -> Jet:
    # replace the angular-pair radius by 1 where the fade already vanishes,
    # so the angular term never divides by zero along the core sphere
    val = np.where(live, r2.value, 1.0)
    grad = None if r2.grad is None else np.where(live[:, None], r2.grad, 0.0)
    hess = None if r2.hess is None else np.where(live[:, None, None], r2.hess, 0.0)
    return Jet(val, grad, hess)


def _faded_primitive(scale2: float, keep, scaled):
    """Primitive of the sphere-area correction, ramped off before the rim.

    Away from the core sphere the correction is exact, with a blown-down
    primitive that splits into the round primitive of the scaled pair plus
    ``scale2`` times the angular form of the kept pair.  Both chart
    expressions pull back from the same form downstairs, so subtracting the
    exterior derivative of this form leaves the charts in exact agreement
    while making the 2-form flat past the fade band.
    """
    a, b = keep
    c, d = scaled

    def coeffs(jc):
        n = _blown_down_r2(jc, keep, scaled)
        ramp = _fade(n) * -1.0 + 1.0
        r2 = _freeze_dead(_r2(jc, keep), n.value > _FADE_LO)
        qa = ramp * scale2 / r2
        qf = ramp * scale2 / (_r2(jc, scaled) + 1.0)
        return {
            (a,): qa * jc[b] * -1.0,
            (b,): qa * jc[a],
            (c,): qf * jc[d] * -1.0,
            (d,): qf * jc[c],
        }

    return coeffs


def _corrected(down, flat_coeffs, term, correction):
    """Coefficients of a flat form pulled back through ``down``, plus ``term``, minus ``correction``.

    The three are summed in that order into one dict per batch.
    """

    def coeffs(jc):
        img = down(jc)
        out = pullback_coeffs(flat_coeffs(image_seed(img)), img, image_jacobian(img))
        for idx, c in term(jc).items():
            _acc(out, idx, c, 1)
        for idx, c in correction(jc).items():
            _acc(out, idx, c * -1.0, 1)
        return out

    return coeffs


def _kahler_metric(omega: KForm):
    def metric(jc):
        om = form_matrix_jets(omega, jc)
        return [
            [sum((om[i][k] * _J0[k, j] for k in range(4) if _J0[k, j] != 0.0), jc[0] * 0.0)
             for j in range(4)]
            for i in range(4)
        ]

    return metric


def _dual_liouville(lam, metric):
    def field(jc):
        g = metric(jc)
        coeffs = lam(jc)
        zero = jc[0] * 0.0
        lvec = [coeffs.get((i,), zero) for i in range(4)]
        rhs = [
            sum((lvec[k] * (-_J0[i, k]) for k in range(4) if _J0[i, k] != 0.0), zero)
            for i in range(4)
        ]
        return solve_spd_jet(g, rhs)

    return field


_CORE_NAMES = {
    (0, 1): ("inner", ("u1", "u2", "v1", "v2")),
    (2, 3): ("outer", ("p1", "p2", "q1", "q2")),
}


def _core_chart_data(keep, scaled, hamiltonian, eps2, flat: ChartData):
    """Core chart keeping the pair ``keep``; everything but H follows from the pair.

    Its domain stops short of the rim band and caps the scaled pair.  The
    flat forms pull back through the blow-down, the same map as the
    transition to the rim; omega and the primitive lambda that Y is solved
    from each add their sphere term and subtract the faded correction in
    one coefficient function (:func:`_corrected`).  The kept pair turns
    with its flat weight, the scaled pair with the difference of the two
    flat weights.
    """
    name, coords = _CORE_NAMES[keep]

    def rim_gap(jc):
        return _blown_down_r2(jc, keep, scaled) - _CORE_HI

    def cap(jc):
        return _r2(jc, scaled) - V_CAP2

    box_hi = tuple(0.98 if i in keep else 1.22 for i in range(4))
    chart = Chart(
        name=name,
        coords=coords,
        periodic=(False,) * 4,
        box_lo=tuple(-b for b in box_hi),
        box_hi=box_hi,
        domain=(rim_gap, cap),
    )
    down = _blowdown(keep, scaled)
    psi = _faded_primitive(eps2, keep, scaled)
    fs, rp = _fubini_study(eps2, scaled), _round_primitive(eps2, scaled)
    omega = KForm(_corrected(down, flat.omega.coefficients, fs, lambda jc: d_coeffs(psi(jc), 4)))
    lam = _corrected(down, flat.alpha().coefficients, rp, psi)
    w_keep = flat.weights[keep]
    metric = _kahler_metric(omega)
    return ChartData(
        chart=chart,
        omega=omega,
        hamiltonian=hamiltonian,
        weights={keep: w_keep, scaled: flat.weights[scaled] - w_keep},
        liouville=_dual_liouville(lam, metric),
        metric=metric,
    )


def blowup_d4(m: int = 1, n: int = -1, size: float = 0.2) -> HamiltonianModel:
    """Blow up the origin of a weight-(m, n) rotated 4-ball."""
    if m == 0 or n == 0:
        raise SurfaceBlowupUnsupported(
            "a zero weight fixes a whole coordinate plane through the center; "
            "blowing up a point of a fixed surface is not supported"
        )
    flat = disc_d4(m, n).charts[0]
    m, n = int(m), int(n)
    if not (0 < size <= 0.3):
        raise ValueError(f"size must lie in (0, 0.3], got {size}")
    eps2 = float(size) ** 2
    fm, fn = float(m), float(n)

    def rim_core_gap(jc):
        return -(jc[0] * jc[0] + jc[1] * jc[1] + jc[2] * jc[2] + jc[3] * jc[3]) + _RIM_LO

    rim = dataclasses.replace(
        flat.chart,
        name="rim",
        box_lo=(-1.01,) * 4,
        box_hi=(1.01,) * 4,
        domain=(flat.chart.boundary, rim_core_gap),
    )

    # the two moment maps stay apart: one shared formula would reorder operands
    def ham_inner(jc):
        u2, v2 = _r2(jc, (0, 1)), _r2(jc, (2, 3))
        lifted = v2 / (v2 + 1.0) * (eps2 * (fn - fm)) + eps2 * fm
        fade = _fade(_blown_down_r2(jc, (0, 1), (2, 3)))
        return u2 * (fm / 2) + u2 * v2 * (fn / 2) + fade * lifted

    def ham_outer(jc):
        p2, q2 = _r2(jc, (0, 1)), _r2(jc, (2, 3))
        lifted = 1.0 / (p2 + 1.0) * (eps2 * (fn - fm)) + eps2 * fm
        fade = _fade(_blown_down_r2(jc, (2, 3), (0, 1)))
        return p2 * q2 * (fm / 2) + q2 * (fn / 2) + fade * lifted

    pairs = [((0, 1), (2, 3)), ((2, 3), (0, 1))]
    cores = [
        _core_chart_data(keep, scaled, ham, eps2, flat)
        for (keep, scaled), ham in zip(pairs, (ham_inner, ham_outer))
    ]
    charts = cores + [dataclasses.replace(flat, chart=rim)]
    for cd in charts:
        assert_moment(cd)

    # model order (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)
    core = [cd.chart for cd in cores]
    transitions = [
        Transition(i, 1 - i, SmoothMap(core[i], core[1 - i], _swap(k, s)), valid=_far(s))
        for i, (k, s) in enumerate(pairs)
    ]
    for i, (k, s) in enumerate(pairs):
        transitions += [
            Transition(i, 2, SmoothMap(core[i], rim, _blowdown(k, s)), valid=_near_rim(k, s)),
            Transition(2, i, SmoothMap(rim, core[i], _lift(k, s)), valid=_over_core(k, s)),
        ]
    return HamiltonianModel(
        name="blowup_d4",
        params={"m": m, "n": n, "size": float(size)},
        charts=charts,
        transitions=transitions,
        meta={
            "center_values": (eps2 * m, eps2 * n),
            "sphere_weight": abs(n - m),
        },
    )
