"""Randomized identity checks over chart models, with deterministic reports.

Six checks run per model.  Each walks the model's charts through
:class:`_Tally`, the one place where the sample-stream rule
``[seed, check_index, chart_index]`` (reports reproducible and prefix-stable
in the sample count) and the ``chart 'name': `` wording of notes and skips
live.  :class:`RunConfig` holds the seed, samples and tolerances:

* ``symplectic``: the 2-form is closed and uniformly nondegenerate (on
  charts that declare a degenerate direction, the form must kill exactly
  that direction and be nondegenerate on the complementary coordinates).
* ``liouville``: the expanding field satisfies L_Y omega = omega.
* ``hamiltonian``: the circle generator satisfies i_X omega = -dH.
* ``invariance``: omega, H, the expanding field Y, its primitive
  alpha = i_Y omega, and the metric are preserved by the action at
  equispaced angles.
* ``commutation``: [X, grad H] vanishes and X equals J grad H for the
  compatible pointwise complex structure.
* ``contact_boundary``: on boundary samples, alpha = i_Y omega has
  alpha wedge d(alpha) uniformly nonvanishing on the kernel of dF with a
  consistent sign, and the expanding field Y crosses the boundary outward.

Each check seeds the lowest jet order it consumes; jet values never depend
on the seeded order, and a missing order raises JetOrderError, so the order
sets a check's cost, never its report.  :func:`_at_lowest_order` finds it
once per chart, as the first order from the check's start at which its
fields raise no JetOrderError: one more where a field takes a partial (Y on
the planar shells and the disc bundle; omega, Y and g, which are pullbacks,
on the blow-up core charts).  ``invariance`` compares values only and starts
at order 0, at the samples and their images alike; the action is linear in
chart coordinates, so one Jacobian per angle pulls the image values back.
``symplectic`` (d omega), ``liouville`` (L_Y omega) and ``contact_boundary``
(d alpha, alpha = i_Y omega) start at order 1, and ``hamiltonian`` seeds
order 1 (dH; omega takes no partial on any catalog chart).  ``commutation``
evaluates X and grad H once at order 2, as the bracket takes a partial of
grad H, itself solved from dH; X = J grad H reads the same values, and omega
and g start at order 0.  The ``liouville`` and ``hamiltonian`` residuals
are :func:`hamflow.model.liouville_residual` and
:func:`hamflow.model.moment_residual`, which the builders' self-check shares.
Each check evaluates a form once per batch and builds d, i_v, wedges and
pullbacks from those coefficients with the operators of :mod:`hamflow.forms`.
A NaN or infinite residual fails its check (see :class:`CheckResult`).

Every chart declares omega, H, the circle action and Y.  Charts without a
metric, a boundary or samples inside their margin are skipped with a
reason; a check is marked skipped only when no chart could run it.  Fields
declared valid away from a margin (``liouville_domain``) are checked only
inside it, per the chart's own declaration.  Three deliberately corrupted
builders at the bottom each fail exactly one check and pin down the checks'
discriminating power.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from numbers import Integral
from typing import Mapping

import numpy as np

from . import basic, forms, handles, jets
from .chart import sample_boundary, sample_domain
from .errors import BoundaryNotFound, JetOrderError
from .forms import KForm
from .linalg import compatible_structure, congruence, nondegenerate
from .model import HamiltonianModel, liouville_primitive, liouville_residual, moment_residual

Array = np.ndarray

DEFAULT_TOLERANCES = {
    "symplectic": 1e-10,
    "liouville": 1e-8,
    "hamiltonian": 1e-10,
    "invariance": 1e-9,
    "commutation": 1e-8,
    "contact_boundary": 1e-8,
}
CHECK_IDS = tuple(DEFAULT_TOLERANCES)

# scale-free floor for the contact volume / outward margins
CONTACT_FLOOR = 1e-6
INVARIANCE_ANGLES = 16
ANGLE_BLOCK_ROWS = 2048  # most image rows whose fields check_invariance evaluates at once
NONFINITE_RESIDUAL = float(np.finfo(float).max)

_CHECK_INDEX = {cid: k for k, cid in enumerate(CHECK_IDS)}


@dataclass(frozen=True)
class RunConfig:
    """Seed, samples per check and per-check overrides of DEFAULT_TOLERANCES; bad ones raise when built."""

    seed: int = 0
    samples: int = 500
    tolerances: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # bool is an Integral, yet True would run as 1 and serialize as true: no setting takes one
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if isinstance(self.samples, bool) or not isinstance(self.samples, Integral) or self.samples < 1:
            raise ValueError(f"samples must be an integer of at least 1, got {self.samples!r}")
        for cid, tol in self.tolerances.items():
            if cid not in DEFAULT_TOLERANCES:
                raise KeyError(f"unknown check {cid!r}; known checks: {', '.join(CHECK_IDS)}")
            if isinstance(tol, bool) or not (np.isfinite(tol) and tol > 0):
                raise ValueError(f"tolerance for {cid!r} must be finite and positive, got {tol}")

    def tolerance(self, check_id: str) -> float:
        return float(self.tolerances.get(check_id, DEFAULT_TOLERANCES[check_id]))


@dataclass
class CheckResult:
    """Outcome of one check aggregated over all charts of a model.

    A NaN or infinite residual fails the check and reads as the finite
    sentinel NONFINITE_RESIDUAL (the largest double), at the first such
    sample, with the note naming every chart where one occurred.
    """

    check_id: str
    max_residual: float
    worst_point: list | None
    passed: bool | None
    skipped: str | None = None
    note: str = ""

    def to_entry(self) -> dict:
        entry: dict = {
            "id": self.check_id,
            "max_residual": float(self.max_residual),
            "worst_point": self.worst_point,
        }
        if self.skipped is not None:
            entry["skipped"] = self.skipped
        else:
            entry["passed"] = bool(self.passed)
        if self.note:
            entry["note"] = self.note
        return entry


def canonical_json(payload) -> str:
    """Sorted-key compact JSON; NaN and infinities raise instead of serializing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass
class VerificationReport:
    """Full per-model report; serializes to canonical JSON bytes."""

    model: str
    seed: int
    tolerance: dict
    results: list[CheckResult]
    critical: int | None = None

    @property
    def overall(self) -> bool:
        flags = [r.passed for r in self.results if r.skipped is None]
        return all(flags) if flags else False

    def failures(self) -> list[str]:
        return [r.check_id for r in self.results if r.skipped is None and not r.passed]

    def to_dict(self) -> dict:
        out = {
            "model": self.model,
            "seed": self.seed,
            "tolerance": dict(self.tolerance),
            "checks": [r.to_entry() for r in self.results],
            "overall": self.overall,
        }
        if self.critical is not None:
            out["critical"] = self.critical
        return out

    def to_json(self) -> bytes:
        return canonical_json(self.to_dict()).encode("utf-8")

    def lines(self) -> list[str]:
        out = [f"{self.model}  seed={self.seed}"]
        for r in self.results:
            if r.skipped is not None:
                out.append(f"  {r.check_id:<18} skipped   ({r.skipped})")
                continue
            verdict = "pass" if r.passed else "FAIL"
            out.append(f"  {r.check_id:<18} {verdict}   max residual {r.max_residual:.3e}")
        out.append(f"  overall: {'pass' if self.overall else 'FAIL'}")
        return out


class _Tally:
    """One check's walk over a model's charts: sample streams, worst residual, notes and verdict.

    ``charts(model)`` yields ``(chart data, generator)`` and names the current
    chart; the generator is seeded ``[seed, check index, chart index]``.
    ``update`` keeps the largest residual and its point; a non-finite residual
    outranks all and is counted per chart.  ``note`` and ``skip`` prefix the
    current chart's name, and ``passed`` is cleared by a check's own test.
    """

    def __init__(self, check_id: str, config: RunConfig):
        self.check_id = check_id
        self.config = config
        self.value = 0.0
        self.point: Array | None = None
        self.ran = False
        self.passed = True
        self.chart = ""
        self.nonfinite: dict[str, int] = {}
        self.notes: list[str] = []
        self.skips: list[str] = []

    def charts(self, model: HamiltonianModel):
        for ci, cd in enumerate(model.charts):
            self.chart = cd.chart.name
            yield cd, np.random.default_rng([self.config.seed, _CHECK_INDEX[self.check_id], ci])

    def note(self, text: str):
        self.notes.append(f"chart {self.chart!r}: {text}")

    def skip(self, reason: str):
        self.skips.append(f"chart {self.chart!r}: {reason}")

    def update(self, res: Array, pts: Array):
        res = np.asarray(res, dtype=float)
        if res.size == 0:
            return
        self.ran = True
        bad = ~np.isfinite(res)
        if bad.any():
            if not self.nonfinite:
                self.value = NONFINITE_RESIDUAL
                self.point = np.array(pts[int(np.argmax(bad))], dtype=float)
            self.nonfinite[self.chart] = self.nonfinite.get(self.chart, 0) + int(bad.sum())
            return
        if self.nonfinite:
            return
        i = int(np.argmax(res))
        if self.point is None or float(res[i]) > self.value:
            self.value = float(res[i])
            self.point = np.array(pts[i], dtype=float)

    def result(self) -> CheckResult:
        """Non-finite counts, then notes, then skips; skipped outright if no chart ran."""
        if not self.ran:
            reason = "; ".join(self.skips) or "no chart provides the required data"
            return CheckResult(self.check_id, 0.0, None, None, skipped=reason)
        bad = [f"chart {c!r}: {k} non-finite residuals" for c, k in self.nonfinite.items()]
        passed = self.passed and not self.nonfinite and self.value < self.config.tolerance(self.check_id)
        point = [float(x) for x in self.point]
        return CheckResult(self.check_id, self.value, point, passed, note="; ".join(bad + self.notes + self.skips))


def _sample_inside_margin(t: _Tally, cd, n: int, rng: np.random.Generator) -> Array:
    """At most ``n`` samples inside the chart's field margins from 20 draws; a shortfall is noted, none skips."""
    kept = np.zeros((0, cd.chart.dim))
    for _ in range(20):
        pts = sample_domain(cd.chart, n, rng)
        kept = np.concatenate([kept, pts[cd.inside_margin(pts)]], axis=0)[:n]
        if kept.shape[0] == n:
            break
    if not kept.shape[0]:
        t.skip("declared field margin left no samples")
    elif kept.shape[0] < n:
        t.note(f"{kept.shape[0]} of {n} samples inside the declared margin")
    return kept


# ----------------------------------------------------------------------
# the six checks


def check_symplectic(model: HamiltonianModel, config: RunConfig) -> CheckResult:
    """Closedness of the 2-form plus a scale-free rank floor, at the lowest order from 1 (:func:`_closedness`)."""
    t = _Tally("symplectic", config)
    for cd, rng in t.charts(model):
        pts = sample_domain(cd.chart, config.samples, rng)
        _, (res, om) = _at_lowest_order(partial(_closedness, cd), pts, 1)
        t.update(res, pts)
        if cd.kernel_complement is not None:
            sub = np.asarray(cd.kernel_complement)
            om = om[:, sub[:, None], sub[None, :]]
            t.note("rank floor applied on the complement of the degenerate direction")
        ok, pf = nondegenerate(om)
        if not ok:
            t.passed = False
            t.note(f"normalized pairing volume fell to {pf:.3e}")
    return t.result()


def _closedness(cd, jc):
    """The residual of d(omega) = 0, and of i_K omega = 0 on a declared kernel K, and omega's value matrix at ``jc``."""
    omega = cd.omega.coefficients(jc)
    res = forms.coeff_residual(forms.d_coeffs(omega, cd.chart.dim), {})
    if cd.kernel is not None:
        res = np.maximum(res, forms.coeff_residual(forms.interior_coeffs(cd.kernel(jc), omega), {}))
    return res, forms.form_matrix(omega, jc)


def check_liouville(model: HamiltonianModel, config: RunConfig) -> CheckResult:
    """Expansion identity L_Y omega = omega inside declared margins, at the lowest order from 1."""
    t = _Tally("liouville", config)
    for cd, rng in t.charts(model):
        pts = _sample_inside_margin(t, cd, config.samples, rng)
        if pts.shape[0]:
            t.update(_at_lowest_order(partial(liouville_residual, cd), pts, 1)[1], pts)
    return t.result()


def check_hamiltonian(model: HamiltonianModel, config: RunConfig) -> CheckResult:
    """Moment identity i_X omega + dH = 0 on every chart."""
    t = _Tally("hamiltonian", config)
    for cd, rng in t.charts(model):
        pts = sample_domain(cd.chart, config.samples, rng)
        t.update(moment_residual(cd, jets.seed(pts, order=1)), pts)
    return t.result()


def check_invariance(model: HamiltonianModel, config: RunConfig) -> CheckResult:
    """Action invariance of omega, H, alpha and Y, and of g where present.

    The angles run in blocks of at most ANGLE_BLOCK_ROWS image rows (at least
    one angle).  One :meth:`hamflow.model.ChartData.action_map` call reads a
    block's K n images and its K constant Jacobians, (K, d, d), off the
    weight table, and the fields are evaluated once on the images: omega and
    alpha are pulled back for all K angles at once on values, skipping exact
    zero minors (:func:`hamflow.forms.pullback_values`), Y is pushed forward
    by one einsum and g pulled back by one :func:`hamflow.linalg.congruence`
    over the K n rows.  Each angle's rows are then compared in angle order, as omega,
    H, alpha, Y, g.
    """
    t = _Tally("invariance", config)
    for cd, rng in t.charts(model):
        pts = sample_domain(cd.chart, config.samples, rng)
        n = pts.shape[0]
        mask = cd.inside_margin(pts)
        if not mask.all():
            t.note(f"field comparisons on {int(mask.sum())} of {n} samples inside the declared margin")
        order, (h0, omega0, alpha0, y0, g0) = _at_lowest_order(partial(_invariant_fields, cd), pts, 0)
        per_block = max(1, ANGLE_BLOCK_ROWS // n)
        for first in range(1, INVARIANCE_ANGLES + 1, per_block):
            ks = np.arange(first, min(first + per_block, INVARIANCE_ANGLES + 1))
            images, jacs = cd.action_map(2 * np.pi * ks / INVARIANCE_ANGLES, pts)
            img_pts = images.reshape(-1, cd.chart.dim)
            h1, omega1, alpha1, y1, g1 = _invariant_fields(cd, jets.seed(img_pts, order=order))
            rows = (len(ks), n)
            inside = cd.inside_margin(cd.chart.wrap(img_pts)).reshape(rows)
            pulled = [
                forms.pullback_values({i: c.value.reshape(rows) for i, c in f.items()}, jacs) for f in (omega1, alpha1)
            ]
            omega_res, alpha_res = forms.coeff_residual(pulled[0], omega0), forms.coeff_residual(pulled[1], alpha0)
            y_res = np.abs(np.einsum("kij,nj->kni", jacs, y0) - y1.reshape(*rows, -1)).max(axis=2)
            if g0 is not None:
                g_res = np.abs(congruence(jacs[:, None], g1.reshape(*rows, *g0.shape[1:])) - g0).max(axis=(2, 3))
            for b in range(len(ks)):
                keep = mask & inside[b]
                t.update(omega_res[b], pts)
                t.update(np.abs(h1.reshape(rows)[b] - h0), pts)
                t.update(alpha_res[b][mask], pts[mask])
                t.update(y_res[b][keep], pts[keep])
                if g0 is not None:
                    t.update(g_res[b][keep], pts[keep])
    return t.result()


def _at_lowest_order(fn, pts: Array, start: int):
    """``(order, fn(jets))`` at the lowest order from ``start`` up at which ``fn`` raises no JetOrderError."""
    for order in range(start, 2):
        with suppress(JetOrderError):
            return order, fn(jets.seed(pts, order=order))
    return 2, fn(jets.seed(pts, order=2))


def _invariant_fields(cd, jc):
    """H's values, omega's and alpha = i_Y omega's coefficients, Y's values and g's value matrix (or None) at ``jc``."""
    g = None if cd.metric is None else forms.metric_matrix(cd.metric, jc)
    h, omega, y = cd.hamiltonian(jc).value, cd.omega.coefficients(jc), cd.liouville(jc)
    return h, omega, liouville_primitive(y, omega), jets.values(y), g


def check_commutation(model: HamiltonianModel, config: RunConfig) -> CheckResult:
    """Bracket [X, grad H] = 0 and, from the same order-2 X and grad H, the complex-structure relation X = J grad H."""
    t = _Tally("commutation", config)
    for cd, rng in t.charts(model):
        if cd.metric is None:
            t.skip("no metric")
            continue
        pts = _sample_inside_margin(t, cd, config.samples, rng)
        if not pts.shape[0]:
            continue
        jc = jets.seed(pts, order=2)
        x, grad = cd.generator(jc), cd.gradient_field()(jc)
        t.update(np.abs(jets.values(forms.lie_bracket(x, grad))).max(axis=1), pts)
        if cd.kernel_complement is not None:
            t.skip("degenerate pairing, no complex structure")
            continue
        _, (om, gm) = _at_lowest_order(
            lambda jc: (forms.form_matrix(cd.omega.coefficients(jc), jc), forms.metric_matrix(cd.metric, jc)), pts, 0
        )
        j_mat = compatible_structure(om, gm)
        res = np.abs(jets.values(x) - np.einsum("nij,nj->ni", j_mat, jets.values(grad))).max(axis=1)
        t.update(res, pts)
    return t.result()


def check_contact_boundary(model: HamiltonianModel, config: RunConfig) -> CheckResult:
    """Boundary transversality and uniform nonvanishing of the contact volume (:func:`_contact_volume`)."""
    t = _Tally("contact_boundary", config)
    for cd, rng in t.charts(model):
        if cd.chart.boundary is None:
            t.skip("no boundary")
            continue
        try:
            pts = sample_boundary(cd.chart, config.samples, rng, accept=cd.boundary_accept)
        except BoundaryNotFound as exc:
            t.skip(str(exc).removeprefix(f"chart {cd.chart.name!r}: "))
            continue
        keep = cd.inside_margin(pts)
        if not keep.any():
            t.skip("boundary lies outside the declared margin")
            continue
        pts = pts[keep]
        _, (df, y, a_co, da_co) = _at_lowest_order(partial(_contact_fields, cd), pts, 1)
        vol = _contact_volume(df, a_co, da_co)
        scale = np.maximum(forms.coeff_residual(a_co, {}) * forms.coeff_residual(da_co, {}), 1e-300)
        margin_vol = np.abs(vol) / scale
        shortfall = np.maximum(CONTACT_FLOOR - margin_vol, 0.0)
        t.update(shortfall, pts)
        if shortfall.max() > 0:
            t.passed = False
        signs = np.sign(vol)
        if signs.max() != signs.min():
            t.passed = False
            t.note("contact volume changes sign")
        grads, y_vals = jets.values(df.values()), jets.values(y)
        outward = np.einsum("nd,nd->n", grads, y_vals)
        scale_y = np.maximum(np.linalg.norm(grads, axis=1) * np.linalg.norm(y_vals, axis=1), 1e-300)
        short_out = np.maximum(CONTACT_FLOOR - outward / scale_y, 0.0)
        t.update(short_out, pts)
        if short_out.max() > 0:
            t.passed = False
            t.note("expanding field not uniformly outward")
        t.note(f"min contact volume margin {margin_vol.min():.3e}")
    return t.result()


def _contact_fields(cd, jc):
    """dF, Y's components, and alpha = i_Y omega and d(alpha), the forms as coefficients, at ``jc``."""
    y = cd.liouville(jc)
    alpha = liouville_primitive(y, cd.omega.coefficients(jc))
    dim = cd.chart.dim
    return forms.d_coeffs({(): cd.chart.boundary(jc)}, dim), y, alpha, forms.d_coeffs(alpha, dim)


def _contact_volume(df, alpha, dalpha) -> Array:
    """alpha ^ d(alpha) on ker dF, oriented by the outward normal: the top
    coefficient of dF ^ alpha ^ d(alpha) over |dF|, or 0 where it is missing.

    On a positively oriented orthonormal frame (grad F / |dF|, t1, t2, t3), a
    4-form takes its top coefficient, and dF ^ beta takes |dF| beta(t1, t2, t3).
    """
    top = forms.wedge_coeffs(df, forms.wedge_coeffs(alpha, dalpha)).get(tuple(range(len(df))))
    gnorm = np.linalg.norm(jets.values(df.values()), axis=1)
    return np.zeros_like(gnorm) if top is None else top.value / gnorm


_CHECKS = {
    "symplectic": check_symplectic,
    "liouville": check_liouville,
    "hamiltonian": check_hamiltonian,
    "invariance": check_invariance,
    "commutation": check_commutation,
    "contact_boundary": check_contact_boundary,
}


def run_all(model: HamiltonianModel, config: RunConfig | None = None) -> VerificationReport:
    """Run every check and fold the outcomes into one report."""
    config = config or RunConfig()
    results = [_CHECKS[cid](model, config) for cid in CHECK_IDS]
    tolerance = {cid: config.tolerance(cid) for cid in CHECK_IDS}
    return VerificationReport(
        model=model.spec_string,
        seed=config.seed,
        tolerance=tolerance,
        results=results,
    )


# ----------------------------------------------------------------------
# negative controls: each breaks exactly one check


def control_nonclosed_omega() -> HamiltonianModel:
    """Solid-torus model whose area term gains a height-dependent factor.

    The added term g dx^dy with g = 0.02 h / (x^2 + y^2) has nonzero exterior
    derivative, yet scales exactly under the original expanding field and is
    killed by the translation generator, so only closedness breaks.  The
    contact form i_Y omega follows the bent 2-form and stays a contact form.
    The chart excludes a small tube around the symmetry axis where g blows up.
    """
    base = basic.s1_d3(1, 0)
    cd = base.charts[0]

    def away(jc):
        return -(jc[1] * jc[1]) - jc[2] * jc[2] + 0.2

    chart = dataclasses.replace(
        cd.chart, name="tube_bent", domain=cd.chart.domain + (away,)
    )

    def omega(jc):
        g = jc[3] * 0.02 / (jc[1] * jc[1] + jc[2] * jc[2])
        return {(0, 3): jets.constant(-1.0, jc[0]), (1, 2): g + 1.0}

    bent = dataclasses.replace(cd, chart=chart, omega=KForm(omega))
    return HamiltonianModel(
        name="control_nonclosed_omega",
        params={},
        charts=[bent],
    )


def control_scaled_liouville() -> HamiltonianModel:
    """Ball model with the expanding field doubled.

    Doubling Y turns L_Y omega into 2 omega while staying equivariant and
    outward; the contact form i_Y omega doubles with it and stays a contact
    form, so only the expansion identity breaks.
    """
    base = basic.disc_d4(1, 1)
    cd = base.charts[0]
    original = cd.liouville

    def doubled(jc):
        return [c * 2.0 for c in original(jc)]

    broken = dataclasses.replace(cd, liouville=doubled)
    return HamiltonianModel(
        name="control_scaled_liouville",
        params={},
        charts=[broken],
    )


def control_unbalanced_handle() -> HamiltonianModel:
    """Handle block rotated with unequal plane weights.

    The weight-(1, 2) rotation still preserves the 2-form and its own moment
    map, but the expanding field, and so the contact form i_Y omega, are
    built for equal weights, so only the invariance check breaks.
    """
    base = handles.weinstein_2handle()
    cd = base.charts[0]

    def hamiltonian(jc):
        return (jc[0] * jc[0] + jc[2] * jc[2]) * 0.5 + (jc[1] * jc[1] + jc[3] * jc[3])

    lopsided = dataclasses.replace(cd, hamiltonian=hamiltonian, weights={(0, 2): 1.0, (1, 3): 2.0})
    return HamiltonianModel(
        name="control_unbalanced_handle",
        params={},
        charts=[lopsided],
    )


CONTROLS = {
    "control_nonclosed_omega": ("symplectic", control_nonclosed_omega),
    "control_scaled_liouville": ("liouville", control_scaled_liouville),
    "control_unbalanced_handle": ("invariance", control_unbalanced_handle),
}
