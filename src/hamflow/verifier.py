"""Randomized identity checks over chart models, with deterministic reports.

Six checks run per model, each sampling every chart with its own seeded
generator stream ``[seed, check_index, chart_index]`` so reports are
reproducible and prefix-stable in the sample count:

* ``symplectic``: the 2-form is closed and uniformly nondegenerate (on
  charts that declare a degenerate direction, the form must kill exactly
  that direction and be nondegenerate on the complementary coordinates).
* ``liouville``: the expanding field satisfies L_Y omega = omega.
* ``hamiltonian``: the circle generator satisfies i_X omega = -dH.
* ``invariance``: omega, H, the boundary 1-form, the expanding field, and
  the metric are preserved by the action at equispaced angles.
* ``commutation``: [X, grad H] vanishes and X equals J grad H for the
  compatible pointwise complex structure.
* ``contact_boundary``: on boundary samples, alpha wedge d(alpha) is
  uniformly nonvanishing on the kernel of dF with a consistent sign, and
  the expanding field crosses the boundary outward.

Each check seeds the lowest jet order it consumes; jet values never depend
on the seeded order, and a missing order raises JetOrderError, so the order
sets a check's cost, never its report.  ``invariance`` compares values only,
so it seeds order 1 (a pullback's Jacobian minors, the action Jacobian and
fields taking a partial inside each consume one), evaluates omega, alpha
and H once per chart, and maps each batch once per angle, reusing the image
jets for both pullbacks, H and the Jacobian.  ``hamiltonian`` seeds order 1
too: dH consumes one order, and omega none on every catalog chart (a 2-form
given as d of a primitive that takes a partial would raise JetOrderError).
The other checks seed order 2: d of a form or a bracket of fields consumes
one order on top of the partial some catalog forms and fields already take.
The ``liouville`` and ``hamiltonian`` residuals are
:func:`hamflow.model.liouville_residual` and
:func:`hamflow.model.moment_residual`, which the builders' self-check shares.
Each check evaluates a form once per batch and builds d, i_v, wedges and
pullbacks from those coefficients with the coefficient-level operators of
:mod:`hamflow.forms` (``liouville`` evaluates omega and Y once,
``contact_boundary`` alpha and d(alpha) once).  A NaN or infinite residual
fails its check (see :class:`CheckResult`).

Charts missing an ingredient are skipped with a reason; a check is marked
skipped only when no chart could run it.  Fields declared valid away from a
margin (``liouville_domain``) are checked only inside it, per the chart's
own declaration.  Three deliberately corrupted builders at the bottom each
fail exactly one check and pin down the checks' discriminating power.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import basic, forms, handles, jets
from .chart import sample_boundary, sample_domain
from .forms import KForm
from .linalg import compatible_structure, nondegenerate
from .model import HamiltonianModel, circle_action, contract_form, liouville_residual, moment_residual

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
        if cd.liouville is None:
            skipped.append(f"chart {cd.chart.name!r}: no expanding field")
            continue
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
    """Action invariance of omega and H, and of alpha, Y, g where present."""
    worst = _Worst()
    notes: list[str] = []
    for ci, cd in enumerate(model.charts):
        worst.chart = cd.chart.name
        rng = _rng(spec.seed, "invariance", ci)
        pts = sample_domain(cd.chart, spec.sample_count, rng)
        jc = jets.seed(pts, order=1)
        omega0 = cd.omega.coefficients(jc)
        h0 = cd.hamiltonian(jc).value
        mask = cd.inside_margin(pts)
        mpts = pts[mask]
        mjc = jets.seed(mpts, order=1) if mpts.shape[0] else None
        if mpts.shape[0] < pts.shape[0]:
            notes.append(
                f"chart {cd.chart.name!r}: field comparisons on {mpts.shape[0]} of {pts.shape[0]} samples inside the declared margin"
            )
        alpha = alpha0 = None
        if mjc is not None and (cd.boundary_alpha is not None or cd.liouville is not None):
            alpha = cd.alpha()
            alpha0 = alpha.coefficients(mjc)
        y_vals = None
        if cd.liouville is not None and mjc is not None:
            y_vals = forms.field_values(cd.liouville, mjc)
        g_vals = None
        if cd.metric is not None and mjc is not None:
            g_vals = forms.metric_matrix(cd.metric, mjc)
        dim = cd.chart.dim
        for k in range(1, INVARIANCE_ANGLES + 1):
            amap = cd.action_map(2 * np.pi * k / INVARIANCE_ANGLES)
            img_full = amap.forward(jc)
            pulled = forms.pullback_coeffs(cd.omega, img_full, dim)
            worst.update(forms.coeff_residual(pulled, omega0), pts)
            worst.update(np.abs(cd.hamiltonian(img_full).value - h0), pts)
            if mjc is None or (alpha is None and y_vals is None and g_vals is None):
                continue
            img_jets = amap.forward(mjc)
            if alpha is not None:
                pulled = forms.pullback_coeffs(alpha, img_jets, dim)
                worst.update(forms.coeff_residual(pulled, alpha0), mpts)
            if y_vals is None and g_vals is None:
                continue
            img_pts = cd.chart.wrap(np.stack([j.value for j in img_jets], axis=1))
            jac = np.stack([j.grad for j in img_jets], axis=1)
            keep = cd.inside_margin(img_pts)
            if not keep.any():
                continue
            img_jc = jets.seed(img_pts[keep], order=1)
            if y_vals is not None:
                pushed = np.einsum("nij,nj->ni", jac, y_vals)[keep]
                res = np.abs(pushed - forms.field_values(cd.liouville, img_jc)).max(axis=1)
                worst.update(res, mpts[keep])
            if g_vals is not None:
                g_img = forms.metric_matrix(cd.metric, img_jc)
                pulled = np.einsum("nji,njk,nkl->nil", jac[keep], g_img, jac[keep])
                res = np.abs(pulled - g_vals[keep]).max(axis=(1, 2))
                worst.update(res, mpts[keep])
    return _finish("invariance", spec, worst, True, [], notes)


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
    """Boundary transversality and uniform nonvanishing of the contact volume."""
    worst = _Worst()
    passed = True
    skipped: list[str] = []
    notes: list[str] = []
    for ci, cd in enumerate(model.charts):
        worst.chart = cd.chart.name
        if cd.chart.boundary is None:
            skipped.append(f"chart {cd.chart.name!r}: no boundary")
            continue
        if cd.boundary_alpha is None and cd.liouville is None:
            skipped.append(f"chart {cd.chart.name!r}: no boundary 1-form data")
            continue
        rng = _rng(spec.seed, "contact_boundary", ci)
        pts = sample_boundary(cd.chart, spec.sample_count, rng, accept=cd.boundary_accept)
        keep = cd.inside_margin(pts)
        if not keep.any():
            skipped.append(f"chart {cd.chart.name!r}: boundary lies outside the declared margin")
            continue
        pts = pts[keep]
        jc = jets.seed(pts, order=2)
        alpha = cd.alpha()
        fjet = cd.chart.boundary(jc)
        grads = fjet.grad
        gnorm = np.linalg.norm(grads, axis=1)
        basis = np.linalg.svd(grads[:, None, :])[2][:, 1:, :]
        # orient each tangent frame against the outward normal so the
        # contact volume has a comparable sign across samples
        frame = np.concatenate([grads[:, None, :], basis], axis=1)
        basis[np.linalg.det(frame) < 0, -1, :] *= -1.0
        a_co = alpha.coefficients(jc)
        da_co = forms.d_coeffs(a_co, cd.chart.dim)
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
        if cd.liouville is not None:
            y_vals = forms.field_values(cd.liouville, jc)
            outward = np.einsum("nd,nd->n", grads, y_vals)
            scale_y = np.maximum(gnorm * np.linalg.norm(y_vals, axis=1), 1e-300)
            short_out = np.maximum(CONTACT_FLOOR - outward / scale_y, 0.0)
            worst.update(short_out, pts)
            if short_out.max() > 0:
                passed = False
                notes.append(f"chart {cd.chart.name!r}: expanding field not uniformly outward")
        else:
            notes.append(f"chart {cd.chart.name!r}: transversality untested, no expanding field")
        notes.append(
            f"chart {cd.chart.name!r}: min contact volume margin {margin_vol.min():.3e}"
        )
    return _finish("contact_boundary", spec, worst, passed, skipped, notes)


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
    chart excludes a small tube around the symmetry axis where g blows up.
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
    outward, and the stored boundary 1-form is kept, so only the expansion
    identity breaks.
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
    map, but the stored handle 1-form and the expanding field are built for
    equal weights, so only the invariance check breaks.
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
