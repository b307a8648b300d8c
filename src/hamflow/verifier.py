"""Randomized identity checks over chart models, with deterministic reports.

Six checks run per model, each sampling every chart with its own seeded
generator stream ``[seed, check_index, chart_index]`` so reports are
reproducible and prefix-stable in the sample count:

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
sets a check's cost, never its report.  Where that order depends on the
chart, :func:`_at_lowest_order` finds it once per chart, as the first order
from a starting one at which the check's fields raise no JetOrderError.
``invariance`` compares values only, so it starts at order 0: H, omega, Y and
g are read at order 0 at the samples and at their images, except on charts
whose fields take a partial (Y on the planar shells and the disc bundle;
omega, Y and g, which are pullbacks, on the blow-up core charts), which get
order 1.  The action map runs on order-1 jets whatever that order, since its
Jacobian pulls the image values back (pullback minors, the pushed-forward Y
and the pulled-back metric, :func:`hamflow.linalg.congruence`).  It
evaluates the fields once per chart and once per angle at the seeded images;
alpha at either end is built from the evaluated omega and Y by
:func:`hamflow.model.liouville_primitive`.  ``contact_boundary`` starts at
order 1, since d(alpha) consumes one order of alpha = i_Y omega; on the
planar shells and the disc bundle, whose Y already takes a partial, it gets
order 2.  ``hamiltonian`` seeds order 1: dH consumes one order, and omega none on
every catalog chart (a 2-form given as d of a primitive that takes a partial
would raise JetOrderError).  The other checks seed order 2: d of a form or
a bracket of fields consumes one order on top of the partial some catalog
forms and fields already take.  The ``liouville`` and ``hamiltonian``
residuals are :func:`hamflow.model.liouville_residual` and
:func:`hamflow.model.moment_residual`, which the builders' self-check
shares.  Each check evaluates a form once per batch and builds d, i_v,
wedges and pullbacks from those coefficients with the operators of
:mod:`hamflow.forms`, which all work on evaluated coefficients
(``liouville`` evaluates omega and Y once, and ``contact_boundary``
evaluates them once per seeded order for alpha, d(alpha) and the outward
test).  A NaN or infinite residual fails its check (see
:class:`CheckResult`).

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
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping

import numpy as np

from . import basic, forms, handles, jets
from .chart import sample_boundary, sample_domain
from .errors import JetOrderError
from .forms import KForm
from .linalg import compatible_structure, congruence, nondegenerate
from .model import HamiltonianModel, circle_action, contract_form, liouville_primitive, liouville_residual, moment_residual

Array = np.ndarray

CHECK_IDS = (
    "symplectic",
    "liouville",
    "hamiltonian",
    "invariance",
    "commutation",
    "contact_boundary",
)

DEFAULT_TOLERANCES = {
    "symplectic": 1e-10,
    "liouville": 1e-8,
    "hamiltonian": 1e-10,
    "invariance": 1e-9,
    "commutation": 1e-8,
    "contact_boundary": 1e-8,
}

# scale-free floor for |Pf| and for the contact volume / outward margins
NONDEGENERACY_FLOOR = 1e-6
CONTACT_FLOOR = 1e-6
INVARIANCE_ANGLES = 16
NONFINITE_RESIDUAL = float(np.finfo(float).max)

_CHECK_INDEX = {cid: k for k, cid in enumerate(CHECK_IDS)}


@dataclass(frozen=True)
class CheckSpec:
    """Sampling and tolerance settings for one named check."""

    check_id: str
    tolerance: float
    sample_count: int
    seed: int

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be at least 1, got {self.sample_count}")


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by a full verification run."""

    seed: int = 0
    samples: int = 500
    tolerances: Mapping[str, float] = field(default_factory=dict)

    def spec_for(self, check_id: str) -> CheckSpec:
        if check_id not in DEFAULT_TOLERANCES:
            raise KeyError(f"unknown check {check_id!r}")
        tol = float(self.tolerances.get(check_id, DEFAULT_TOLERANCES[check_id]))
        return CheckSpec(check_id, tol, self.samples, self.seed)


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
    critical: dict | None = None

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


class _Worst:
    """Largest residual and its point; non-finite ones outrank all, counted per ``chart``."""

    def __init__(self):
        self.value = 0.0
        self.point: Array | None = None
        self.ran = False
        self.chart = ""
        self.nonfinite: dict[str, int] = {}

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

    def point_list(self) -> list | None:
        if self.point is None:
            return None
        return [float(x) for x in self.point]


def _rng(seed: int, check_id: str, chart_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _CHECK_INDEX[check_id], chart_index])


def _sample_inside_margin(cd, n: int, rng: np.random.Generator) -> Array:
    """Interior samples respecting the chart's declared field margins."""
    kept = np.zeros((0, cd.chart.dim))
    for _ in range(20):
        pts = sample_domain(cd.chart, n, rng)
        pts = pts[cd.inside_margin(pts)]
        kept = np.concatenate([kept, pts], axis=0)
        if kept.shape[0] >= n:
            break
    return kept[:n]


def _finish(check_id, spec, worst, passed, skipped_charts, notes) -> CheckResult:
    bad = [f"chart {c!r}: {k} non-finite residuals" for c, k in worst.nonfinite.items()]
    note = "; ".join(bad + list(notes) + list(skipped_charts))
    if not worst.ran:
        reason = "; ".join(skipped_charts) or "no chart provides the required data"
        return CheckResult(check_id, 0.0, None, None, skipped=reason)
    passed = passed and not worst.nonfinite and worst.value < spec.tolerance
    return CheckResult(check_id, worst.value, worst.point_list(), passed, note=note)


# ----------------------------------------------------------------------
# the six checks


def check_symplectic(model: HamiltonianModel, spec: CheckSpec) -> CheckResult:
    """Closedness of the 2-form plus a scale-free rank floor."""
    worst = _Worst()
    passed = True
    notes: list[str] = []
    for ci, cd in enumerate(model.charts):
        worst.chart = cd.chart.name
        rng = _rng(spec.seed, "symplectic", ci)
        pts = sample_domain(cd.chart, spec.sample_count, rng)
        jc = jets.seed(pts, order=2)
        omega = cd.omega.coefficients(jc)
        res = forms.coeff_residual(forms.d_coeffs(omega, cd.chart.dim), {})
        if cd.kernel is not None:
            contracted = forms.interior_coeffs(cd.kernel(jc), omega)
            res = np.maximum(res, forms.coeff_residual(contracted, {}))
        worst.update(res, pts)
        om = forms.form_matrix(cd.omega, jc)
        if cd.kernel_complement is not None:
            sub = np.asarray(cd.kernel_complement)
            om = om[:, sub[:, None], sub[None, :]]
            notes.append(
                f"chart {cd.chart.name!r}: rank floor applied on the complement of the degenerate direction"
            )
        ok, pf = nondegenerate(om, NONDEGENERACY_FLOOR)
        if not ok:
            passed = False
            notes.append(f"chart {cd.chart.name!r}: normalized pairing volume fell to {pf:.3e}")
    return _finish("symplectic", spec, worst, passed, [], notes)


def check_liouville(model: HamiltonianModel, spec: CheckSpec) -> CheckResult:
    """Expansion identity L_Y omega = omega inside declared margins."""
    worst = _Worst()
    skipped: list[str] = []
    for ci, cd in enumerate(model.charts):
        worst.chart = cd.chart.name
        rng = _rng(spec.seed, "liouville", ci)
        pts = _sample_inside_margin(cd, spec.sample_count, rng)
        if pts.shape[0] == 0:
            skipped.append(f"chart {cd.chart.name!r}: declared field margin left no samples")
            continue
        worst.update(liouville_residual(cd, jets.seed(pts, order=2)), pts)
    return _finish("liouville", spec, worst, True, skipped, [])


def check_hamiltonian(model: HamiltonianModel, spec: CheckSpec) -> CheckResult:
    """Moment identity i_X omega + dH = 0 on every chart."""
    worst = _Worst()
    for ci, cd in enumerate(model.charts):
        worst.chart = cd.chart.name
        rng = _rng(spec.seed, "hamiltonian", ci)
        pts = sample_domain(cd.chart, spec.sample_count, rng)
        worst.update(moment_residual(cd, jets.seed(pts, order=1)), pts)
    return _finish("hamiltonian", spec, worst, True, [], [])


def check_invariance(model: HamiltonianModel, spec: CheckSpec) -> CheckResult:
    """Action invariance of omega, H, alpha and Y, and of g where present.

    Only values are compared, so H, omega, Y and g are seeded at the lowest
    order at which the chart evaluates them (:func:`_at_lowest_order` from
    order 0), at the samples and at their images alike; the action map runs
    on order-1 jets, whose Jacobian pulls the image values back.
    """
    worst = _Worst()
    notes: list[str] = []
    for ci, cd in enumerate(model.charts):
        worst.chart = cd.chart.name
        rng = _rng(spec.seed, "invariance", ci)
        pts = sample_domain(cd.chart, spec.sample_count, rng)
        mask = cd.inside_margin(pts)
        if not mask.all():
            notes.append(
                f"chart {cd.chart.name!r}: field comparisons on {int(mask.sum())} of {pts.shape[0]} samples inside the declared margin"
            )
        order, (h0, omega0, y0, g0) = _at_lowest_order(partial(_invariant_fields, cd), pts, 0)
        alpha0 = liouville_primitive(y0, omega0)
        y0 = _values(y0)
        jc = jets.seed(pts, order=1)
        dim = cd.chart.dim
        for k in range(1, INVARIANCE_ANGLES + 1):
            img = cd.action_map(2 * np.pi * k / INVARIANCE_ANGLES).forward(jc)
            img_pts = np.stack([j.value for j in img], axis=1)
            h1, omega1, y1, g1 = _invariant_fields(cd, jets.seed(img_pts, order=order))
            worst.update(forms.coeff_residual(forms.pullback_coeffs(omega1, img, dim), omega0), pts)
            worst.update(np.abs(h1 - h0), pts)
            pulled = forms.pullback_coeffs(liouville_primitive(y1, omega1), img, dim)
            worst.update(forms.coeff_residual(pulled, alpha0)[mask], pts[mask])
            keep = mask & cd.inside_margin(cd.chart.wrap(img_pts))
            jac = np.stack([j.grad for j in img], axis=1)[keep]
            pushed = np.einsum("nij,nj->ni", jac, y0[keep])
            worst.update(np.abs(pushed - _values(y1)[keep]).max(axis=1), pts[keep])
            if g0 is not None:
                pulled = congruence(jac, g1[keep])
                worst.update(np.abs(pulled - g0[keep]).max(axis=(1, 2)), pts[keep])
    return _finish("invariance", spec, worst, True, [], notes)


def _at_lowest_order(fn, pts: Array, start: int):
    """``(order, fn(jets))`` at the lowest order from ``start`` up at which ``fn`` raises no JetOrderError."""
    for order in range(start, 2):
        try:
            return order, fn(jets.seed(pts, order=order))
        except JetOrderError:
            pass
    return 2, fn(jets.seed(pts, order=2))


def _invariant_fields(cd, jc):
    """H's values, omega's coefficients, Y's components and g's value matrix (or None) at ``jc``."""
    g = None if cd.metric is None else forms.metric_matrix(cd.metric, jc)
    return cd.hamiltonian(jc).value, cd.omega.coefficients(jc), cd.liouville(jc), g


def _values(comps) -> Array:
    return np.stack([c.value for c in comps], axis=1)


def check_commutation(model: HamiltonianModel, spec: CheckSpec) -> CheckResult:
    """Bracket [X, grad H] = 0 and the complex-structure relation X = J grad H."""
    worst = _Worst()
    skipped: list[str] = []
    for ci, cd in enumerate(model.charts):
        worst.chart = cd.chart.name
        if cd.metric is None:
            skipped.append(f"chart {cd.chart.name!r}: no metric")
            continue
        rng = _rng(spec.seed, "commutation", ci)
        pts = _sample_inside_margin(cd, spec.sample_count, rng)
        if pts.shape[0] == 0:
            skipped.append(f"chart {cd.chart.name!r}: declared field margin left no samples")
            continue
        jc = jets.seed(pts, order=2)
        grad = cd.gradient_field()
        bracket = forms.lie_bracket(cd.generator, grad, cd.chart.dim)
        worst.update(np.abs(forms.field_values(bracket, jc)).max(axis=1), pts)
        om = forms.form_matrix(cd.omega, jc)
        gm = forms.metric_matrix(cd.metric, jc)
        if cd.kernel_complement is not None:
            skipped.append(f"chart {cd.chart.name!r}: degenerate pairing, no complex structure")
            continue
        j_mat = compatible_structure(om, gm)
        x_vals = forms.field_values(cd.generator, jc)
        g_vals = forms.field_values(grad, jc)
        res = np.abs(x_vals - np.einsum("nij,nj->ni", j_mat, g_vals)).max(axis=1)
        worst.update(res, pts)
    return _finish("commutation", spec, worst, True, skipped, [])


def check_contact_boundary(model: HamiltonianModel, spec: CheckSpec) -> CheckResult:
    """Boundary transversality and uniform nonvanishing of the contact volume.

    d(alpha) consumes one jet order of alpha = i_Y omega, and dF and the
    outward test one of the boundary function, so the fields are seeded at
    the lowest order from 1 up at which the chart evaluates them
    (:func:`_at_lowest_order`): order 2 where Y or omega takes a partial.
    """
    worst = _Worst()
    passed = True
    skipped: list[str] = []
    notes: list[str] = []
    for ci, cd in enumerate(model.charts):
        worst.chart = cd.chart.name
        if cd.chart.boundary is None:
            skipped.append(f"chart {cd.chart.name!r}: no boundary")
            continue
        rng = _rng(spec.seed, "contact_boundary", ci)
        pts = sample_boundary(cd.chart, spec.sample_count, rng, accept=cd.boundary_accept)
        keep = cd.inside_margin(pts)
        if not keep.any():
            skipped.append(f"chart {cd.chart.name!r}: boundary lies outside the declared margin")
            continue
        pts = pts[keep]
        _, (grads, y, a_co, da_co) = _at_lowest_order(partial(_contact_fields, cd), pts, 1)
        gnorm = np.linalg.norm(grads, axis=1)
        basis = np.linalg.svd(grads[:, None, :])[2][:, 1:, :]
        # orient each tangent frame against the outward normal so the
        # contact volume has a comparable sign across samples
        frame = np.concatenate([grads[:, None, :], basis], axis=1)
        basis[np.linalg.det(frame) < 0, -1, :] *= -1.0
        vol = contract_form(
            forms.wedge_coeffs(a_co, da_co), [basis[:, i, :] for i in range(cd.chart.dim - 1)]
        )
        a_inf = forms.coeff_residual(a_co, {})
        da_inf = forms.coeff_residual(da_co, {})
        scale = np.maximum(a_inf * da_inf, 1e-300)
        margin_vol = np.abs(vol) / scale
        shortfall = np.maximum(CONTACT_FLOOR - margin_vol, 0.0)
        worst.update(shortfall, pts)
        if shortfall.max() > 0:
            passed = False
        signs = np.sign(vol)
        if signs.max() != signs.min():
            passed = False
            notes.append(f"chart {cd.chart.name!r}: contact volume changes sign")
        y_vals = _values(y)
        outward = np.einsum("nd,nd->n", grads, y_vals)
        scale_y = np.maximum(gnorm * np.linalg.norm(y_vals, axis=1), 1e-300)
        short_out = np.maximum(CONTACT_FLOOR - outward / scale_y, 0.0)
        worst.update(short_out, pts)
        if short_out.max() > 0:
            passed = False
            notes.append(f"chart {cd.chart.name!r}: expanding field not uniformly outward")
        notes.append(f"chart {cd.chart.name!r}: min contact volume margin {margin_vol.min():.3e}")
    return _finish("contact_boundary", spec, worst, passed, skipped, notes)


def _contact_fields(cd, jc):
    """dF's values, Y's components, and alpha = i_Y omega and d(alpha) as coefficients, at ``jc``."""
    y = cd.liouville(jc)
    alpha = liouville_primitive(y, cd.omega.coefficients(jc))
    return cd.chart.boundary(jc).grad, y, alpha, forms.d_coeffs(alpha, cd.chart.dim)


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
    results = [_CHECKS[cid](model, config.spec_for(cid)) for cid in CHECK_IDS]
    tolerance = {cid: config.spec_for(cid).tolerance for cid in CHECK_IDS}
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

    bent = dataclasses.replace(cd, chart=chart, omega=KForm(2, 4, omega))
    return HamiltonianModel(
        name="control_nonclosed_omega",
        params={},
        charts=[bent],
        description="negative control: non-closed 2-form",
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
        description="negative control: expanding field scaled by 2",
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

    generator, action = circle_action({(0, 2): 1.0, (1, 3): 2.0})

    lopsided = dataclasses.replace(
        cd, hamiltonian=hamiltonian, generator=generator, action=action
    )
    return HamiltonianModel(
        name="control_unbalanced_handle",
        params={},
        charts=[lopsided],
        description="negative control: handle rotated with weights (1, 2)",
    )


CONTROLS = {
    "control_nonclosed_omega": ("symplectic", control_nonclosed_omega),
    "control_scaled_liouville": ("liouville", control_scaled_liouville),
    "control_unbalanced_handle": ("invariance", control_unbalanced_handle),
}
