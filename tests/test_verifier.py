"""Verifier checks: zoo spot checks, negative controls, report determinism and
pinned bytes, order-independent values, fail-closed non-finite residuals."""

import dataclasses
import hashlib
import json
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflow import forms, jets, registry, verifier
from hamflow.chart import sample_boundary, sample_domain
from hamflow.errors import JetOrderError
from hamflow.forms import image_jacobian, pullback_coeffs
from hamflow.linalg import congruence
from hamflow.model import liouville_residual, moment_residual
from hamflow.verifier import NONFINITE_RESIDUAL, RunConfig, run_all
from oracles import catalog_action_jacobians, frame_contact_volume, jet_action_map, per_angle_invariance



QUICK = RunConfig(samples=120)


@pytest.mark.parametrize(
    "spec",
    [
        "disc_d4(1,-1)",
        "s1_d3(2,1)",
        "cotangent_t2(1,0)",
        "weinstein_2handle()",
        "free_action_planar(2)",
        "prequantization_s2()",
        "blowup_d4(1,-1,0.2)",
        "attach_2handle(s1_d3(1,0))",
    ],
)
def test_zoo_models_pass_all_checks(spec):
    rep = run_all(registry.build(spec), QUICK)
    assert rep.overall, rep.failures()
    for res in rep.results:
        if res.skipped is None:
            assert res.max_residual < rep.tolerance[res.check_id]


def test_every_zoo_entry_passes_quickly():
    for spec in registry.ZOO:
        rep = run_all(registry.build(spec), RunConfig(samples=60))
        assert rep.overall, (spec, rep.failures())


@pytest.mark.parametrize("name", sorted(verifier.CONTROLS))
def test_negative_control_fails_exactly_its_target(name):
    target, builder = verifier.CONTROLS[name]
    rep = run_all(builder(), QUICK)
    assert rep.failures() == [target]
    failing = [r for r in rep.results if r.check_id == target][0]
    assert failing.max_residual > 1e-3
    assert not rep.overall


def test_reports_are_byte_identical_across_runs():
    cfg = RunConfig(seed=5, samples=90)
    blob1 = run_all(registry.build("s1_d3(2,1)"), cfg).to_json()
    blob2 = run_all(registry.build("s1_d3(2,1)"), cfg).to_json()
    assert blob1 == blob2


def test_report_schema_and_overall_flag():
    rep = run_all(registry.build("disc_d4(1,1)"), QUICK)
    doc = json.loads(rep.to_json())
    assert sorted(doc.keys()) == ["checks", "model", "overall", "seed", "tolerance"]
    assert doc["model"] == "disc_d4(1,1)"
    ids = [c["id"] for c in doc["checks"]]
    assert ids == list(verifier.CHECK_IDS)
    for c in doc["checks"]:
        assert ("passed" in c) != ("skipped" in c)
        assert "max_residual" in c and "worst_point" in c
    flags = [c["passed"] for c in doc["checks"] if "passed" in c]
    assert doc["overall"] == all(flags)


def test_worst_point_has_chart_dimension():
    rep = run_all(registry.build("disc_d4(2,3)"), QUICK)
    for res in rep.results:
        if res.worst_point is not None:
            assert len(res.worst_point) == 4


def test_prefix_monotone_residuals():
    small = run_all(registry.build("free_action_planar(2)"), RunConfig(samples=60))
    large = run_all(registry.build("free_action_planar(2)"), RunConfig(samples=150))
    for a, b in zip(small.results, large.results):
        if a.skipped is None and b.skipped is None:
            assert a.max_residual <= b.max_residual + 1e-15


def test_boundaryless_chart_skips_contact():
    mod = registry.build("disc_d4(1,1)")
    cd = mod.charts[0]
    stripped = dataclasses.replace(cd, chart=dataclasses.replace(cd.chart, boundary=None))
    open_model = dataclasses.replace(mod, charts=[stripped])
    rep = run_all(open_model, RunConfig(samples=60))
    contact = rep.results[-1]
    assert contact.check_id == "contact_boundary"
    assert contact.skipped is not None
    assert "passed" not in contact.to_entry()
    assert rep.overall


def test_unsampleable_boundary_skips_contact():
    """A chart whose boundary filter refuses every point skips the contact check instead of raising."""
    mod = registry.build("disc_d4(1,1)")
    refusing = dataclasses.replace(mod.charts[0], boundary_accept=lambda pts: np.zeros(len(pts), dtype=bool))
    rep = run_all(dataclasses.replace(mod, charts=[refusing]), RunConfig(samples=60))
    untouched = run_all(mod, RunConfig(samples=60))
    contact = rep.results[-1]
    assert contact.check_id == "contact_boundary"
    assert contact.skipped == "chart 'ball': 1024 consecutive rays missed the boundary"
    assert [r.to_entry() for r in rep.results[:-1]] == [r.to_entry() for r in untouched.results[:-1]]


def test_degenerate_direction_noted_on_quotient_model():
    rep = run_all(registry.build("prequantization_s2()"), RunConfig(samples=60))
    sym = rep.results[0]
    assert sym.passed
    assert "degenerate direction" in sym.note
    comm = [r for r in rep.results if r.check_id == "commutation"][0]
    assert comm.passed
    assert "no metric" in comm.note


def test_tolerance_override_changes_verdict():
    rep = run_all(
        verifier.control_scaled_liouville(),
        RunConfig(samples=60, tolerances={"liouville": 2.0}),
    )
    assert rep.overall


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf"), float("-inf")])
def test_runconfig_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        RunConfig(tolerances={"liouville": tol})


def test_runconfig_rejects_bad_settings():
    with pytest.raises(ValueError):
        RunConfig(samples=0)
    with pytest.raises(KeyError, match="known checks: symplectic, liouville"):
        RunConfig(tolerances={"liouvile": 2.0})
    with pytest.raises(KeyError):
        RunConfig().tolerance("unknown_check")
    assert RunConfig(tolerances={"liouville": 2.0}).tolerance("liouville") == 2.0
    assert RunConfig().tolerance("liouville") == verifier.DEFAULT_TOLERANCES["liouville"]


@pytest.mark.parametrize(
    "setting, value", [("seed", -1), ("seed", 1.5), ("seed", "3"), ("samples", 2.0), ("samples", 0)]
)
def test_runconfig_names_a_bad_seed_or_sample_count(setting, value):
    """A negative or fractional seed, or a fractional sample count, used to
    construct and then fail inside NumPy's generator or a slice, naming no setting."""
    with pytest.raises(ValueError, match=f"^{setting} must be"):
        RunConfig(**{setting: value})
    assert RunConfig(seed=np.int64(3), samples=np.int64(5)).seed == 3


@pytest.mark.parametrize("setting, value", [("seed", True), ("seed", False), ("samples", True)])
def test_runconfig_refuses_a_boolean_seed_or_sample_count(setting, value):
    """``bool`` is an ``Integral``: ``seed=True`` used to run as seed 1 and write
    ``"seed":true`` into the report, whose bytes then differ from seed 1's."""
    with pytest.raises(ValueError, match=f"^{setting} must be"):
        RunConfig(**{setting: value})


def test_runconfig_refuses_a_boolean_tolerance():
    with pytest.raises(ValueError, match="finite and positive"):
        RunConfig(tolerances={"liouville": True})


def test_contact_margins_reported():
    rep = run_all(registry.build("disc_d4(1,1)"), RunConfig(samples=80))
    contact = rep.results[-1]
    assert contact.passed
    assert contact.max_residual == 0.0
    assert "min contact volume margin" in contact.note


def _contact_frame_oracle(df, alpha, dalpha):
    """The same volume from :func:`oracles.frame_contact_volume`, on the value arrays of the coefficients."""
    grad = np.stack([df[(j,)].value for j in range(4)], axis=1)
    a = np.zeros_like(grad)
    b = np.zeros(grad.shape + (4,))
    for (i,), c in alpha.items():
        a[:, i] = c.value
    for (i, j), c in dalpha.items():
        b[:, i, j], b[:, j, i] = c.value, -c.value
    return frame_contact_volume(grad, a, b)


def test_contact_volume_matches_an_explicit_frame():
    """On every ZOO boundary chart, at the contact check's seed-0 boundary samples,
    the top coefficient of dF ^ alpha ^ d(alpha) over |dF| agrees with alpha ^ d(alpha)
    on a positively oriented orthonormal frame of ker dF: same sign everywhere,
    relative difference at most 1e-12."""
    index = verifier.CHECK_IDS.index("contact_boundary")
    for spec in registry.ZOO:
        for ci, cd in enumerate(registry.build(spec).charts):
            if cd.chart.boundary is None:
                continue
            pts = sample_boundary(cd.chart, 200, np.random.default_rng([0, index, ci]), accept=cd.boundary_accept)
            pts = pts[cd.inside_margin(pts)]
            _, (df, _, alpha, dalpha) = verifier._at_lowest_order(partial(verifier._contact_fields, cd), pts, 1)
            vol = verifier._contact_volume(df, alpha, dalpha)
            oracle = _contact_frame_oracle(df, alpha, dalpha)
            assert np.array_equal(np.sign(vol), np.sign(oracle)), (spec, cd.chart.name)
            assert np.all(np.abs(vol - oracle) <= 1e-12 * np.abs(oracle)), (spec, cd.chart.name)


# sha256 of run_all(..., RunConfig(seed=0, samples=64)).to_json(); a fast
# path must leave every report byte as it is
REPORT_SHA256 = {
    "disc_d4(1,1)": "6b52b1e827284d421674159162115210302903065b557e9aead7706c0c3cbe10",
    "disc_d4(1,-1)": "623e0beab9633b3c53ef3de35465ef757f5e629a3b23bd0179f11acd387c60a9",
    "disc_d4(2,3)": "406a2ef0993195250d9bc974077fa4d4f3c876a30b070600e2ca2eda1a9b6006",
    "disc_d4(1,0)": "7908b0766ecb44888f942221f43108d8a089288361bf218ec5aa4b28b797e453",
    "s1_d3(1,0)": "fe36acf2974b05e26f85cc1563bc81bb7eb24df9fe2b0bb909902bf188deafc6",
    "s1_d3(0,1)": "048e6a36ca11d4b72ffeaf342b52f96725c6899f88a2eae46ca7d9f04b7240d9",
    "s1_d3(2,1)": "6f55ca011ca9ed95ebb67ed860bc4e8d1ae304f872c396eb85352f10fb710e05",
    "cotangent_t2(1,0)": "1e7c674897aa76b4be5f102f33a6261e0153eee6ba5229f26cab633ebd08b7d3",
    "cotangent_s2()": "e38faafdbd7a930b452258d41c4e2a6a4cbc179cac864a36efc791f30e0439a7",
    "weinstein_2handle()": "416c7d234b43819d73cefba03af25a985d9b3d8923f4115a327d69841560abbd",
    "weinstein_1handle(1)": "5b4b5709874bcec37b3de31eba48fe93c183c48ff2e89fe394b7da612e3e26db",
    "free_action_planar(1)": "be9c0b630d51d7593c21bb7c226fcd8a1eeed7afb46296c55ab8aa0a2211dd4e",
    "free_action_planar(2)": "f66c85ccc94cde5d0632a98f16fed4fc699c02846623fa09fb2dbc24e109d433",
    "free_action_planar(3)": "68356aff4d97f26cb6793f41dab5457e6c7164d2ee0739445c337a440e798a02",
    "disc_bundle_over_surface()": "e6257f5fea19cb50cec5bf1d7da4015260da704d734aadf7b41b42af4f12326a",
    "prequantization_s2()": "c413e0b48358b57988fbc6fb36fa14e43a6313f9e9268a2a4ee5d5add8022335",
    "blowup_d4(1,-1,0.2)": "c03831096f9466d5f3aef089bee3d65e6fc3ab7060a3451196a116bc0015a5fd",
    "attach_2handle(s1_d3(1,0))": "9d9ea24c7a7de174852330dcd86bc25b2a5c69e8a0351d7aee399673c95c3c53",
    "control_nonclosed_omega": "f1270363aae73d8ffc56880ddc230264d081fb9446633ba08b9b1603ae7ccec5",
    "control_scaled_liouville": "52296e13524d1ea30607f1546794f80fec8544dc7a16493d14d456b7b3fae8cc",
    "control_unbalanced_handle": "3281656e6c69f305d3afba14e60154423e85df39abe0ed4b6d3898292f00922d",
}


def test_report_bytes_match_pins():
    cfg = RunConfig(seed=0, samples=64)
    builders = {spec: (lambda s=spec: registry.build(s)) for spec in registry.ZOO}
    builders.update({name: builder for name, (_, builder) in verifier.CONTROLS.items()})
    assert builders.keys() == REPORT_SHA256.keys()
    changed = [
        name
        for name, build in builders.items()
        if hashlib.sha256(run_all(build(), cfg).to_json()).hexdigest() != REPORT_SHA256[name]
    ]
    assert not changed


# sha256 of run_all(..., RunConfig(seed=1, samples=500)).to_json(), the
# verify_zoo setting, on the models whose checks evaluate pullbacks, several
# charts or a failing invariance
REPORT_SHA256_500 = {
    "attach_2handle(s1_d3(1,0))": "b1b03b124d87fd5ce57bfb347b44135894dafa2cf2ec12973c7938a506a029ef",
    "blowup_d4(1,-1,0.2)": "168e334e244898fe5d4425c341f70a3445260fa93c01660169c6a3d401638b12",
    "prequantization_s2()": "6bdb90ebb987046ecda5d42ade935f3655f2ec52b40a6e8c2dca642a729d46b8",
    "cotangent_s2()": "79213094edadada0643f8a0be00effae5992433b5f611a1f6fd487c1d14317ba",
    "control_unbalanced_handle": "11baab46100daa5f53ea5a8cdf6990c76937584752511075da77c5816c87a2eb",
}


@pytest.mark.parametrize("name", list(REPORT_SHA256_500))
def test_report_bytes_match_pins_at_500_samples(name):
    digest = hashlib.sha256(run_all(MODELS[name](), RunConfig(seed=1, samples=500)).to_json()).hexdigest()
    assert digest == REPORT_SHA256_500[name]


@pytest.mark.parametrize("samples", [64, 500, 600, 2100])
@pytest.mark.parametrize("name", list(REPORT_SHA256_500))
def test_invariance_matches_the_per_angle_loop(name, samples):
    """The invariance entry is byte for byte that of the one-angle-at-a-time
    jet loop: 600 samples leave a partial last angle block, 2,100 exceed the
    block budget and get one angle per block."""
    model, config = MODELS[name](), RunConfig(seed=1, samples=samples)
    got = verifier.check_invariance(model, config).to_entry()
    assert verifier.canonical_json(got) == verifier.canonical_json(per_angle_invariance(model, config).to_entry())


def _assert_same_values(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert np.array_equal(a[key].value, b[key].value), key
    else:
        assert np.array_equal(a, b)


# (chart, field) pairs that take a partial, so seeding order 0 raises JetOrderError
ORDER_1_FIELDS = {
    **{f"free_action_planar({k})": {("shell", "Y")} for k in (1, 2, 3)},
    "disc_bundle_over_surface()": {("bundle", "Y")},
    "blowup_d4(1,-1,0.2)": {(c, f) for c in ("inner", "outer") for f in ("omega", "Y", "g")},
}

# (chart, derived quantity) pairs that consume one order on top of a field's
# partial, so seeding order 1 raises JetOrderError: L_Y omega where Y takes a
# partial, d omega and L_Y omega where omega does
ORDER_2_FIELDS = {
    **{f"free_action_planar({k})": {("shell", "L_Y omega")} for k in (1, 2, 3)},
    "disc_bundle_over_surface()": {("bundle", "L_Y omega")},
    "blowup_d4(1,-1,0.2)": {(c, f) for c in ("inner", "outer") for f in ("d omega", "L_Y omega")},
}

MODELS = {spec: partial(registry.build, spec) for spec in registry.ZOO}
MODELS.update({name: builder for name, (_, builder) in verifier.CONTROLS.items()})


INVARIANCE_THETAS = 2 * np.pi * np.arange(1, verifier.INVARIANCE_ANGLES + 1) / verifier.INVARIANCE_ANGLES


@pytest.mark.parametrize("spec", list(MODELS))
def test_action_jacobian_is_the_same_at_every_sample(spec):
    """Every chart's action is linear in its chart coordinates: at each
    invariance angle, the jet action's Jacobian at every domain sample equals
    the one Jacobian that ``ChartData.action_map`` reads off the weight table,
    so the invariance check reads one Jacobian per angle."""
    for ci, cd in enumerate(MODELS[spec]().charts):
        pts = sample_domain(cd.chart, 64, np.random.default_rng([7, ci]))
        _, jacs = cd.action_map(INVARIANCE_THETAS, pts)
        for k, (theta, jac) in enumerate(zip(INVARIANCE_THETAS, jacs), start=1):
            ref = jet_action_map(cd, float(theta)).jacobian(pts)
            assert np.array_equal(ref, np.broadcast_to(jac, ref.shape)), (cd.chart.name, k)


def _assert_value_pullback(values, jac, reference):
    """``forms.pullback_values(values, jac)`` against the jet pullback ``reference`` of the same coefficients.

    On rows where every coefficient is finite, shared keys agree bitwise once
    -0.0 reads as +0.0 (a skipped ±0 term can only flip the sign of an exact
    zero sum, which ``coeff_residual`` takes the absolute value of); a key is
    missing only where all of its minors are exactly 0; and the rows with a
    non-finite coefficient are the non-finite rows of both pullbacks.
    """
    got = forms.pullback_values(values, jac)
    finite = np.all([np.isfinite(v) for v in values.values()], axis=0)
    assert set(got) <= set(reference)
    for key, ref in reference.items():
        if key in got:
            mine, theirs = got[key][finite] + 0.0, ref.value[finite] + 0.0
            assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64)), key
        else:
            assert all(forms._det([[jac[i][a] for a in key] for i in tgt]) == 0.0 for tgt in values), key
    for out in (got, {k: c.value for k, c in reference.items()}):
        assert np.array_equal(np.all([np.isfinite(v) for v in out.values()], axis=0), finite)


@pytest.mark.parametrize("spec", list(MODELS))
def test_value_pullback_matches_the_jet_pullback(spec):
    """omega and alpha = i_Y omega at the images of 64 samples, on every
    chart and at every invariance angle, pulled back through the action's
    constant Jacobian on values and on jets."""
    for ci, cd in enumerate(MODELS[spec]().charts):
        pts = sample_domain(cd.chart, 64, np.random.default_rng([11, ci]))
        fields = partial(verifier._invariant_fields, cd)
        for k in range(1, verifier.INVARIANCE_ANGLES + 1):
            act = jet_action_map(cd, 2 * np.pi * k / verifier.INVARIANCE_ANGLES)
            jac = act.jacobian(pts[:1])[0]
            img = act.forward(jets.seed(pts, order=0))
            _, (_, omega, alpha, _, _) = verifier._at_lowest_order(fields, jets.values(img), 0)
            for coeffs in (omega, alpha):
                values = {key: c.value for key, c in coeffs.items()}
                _assert_value_pullback(values, jac, pullback_coeffs(coeffs, img, jac))


def _assert_stacked_pullback(values, jacs):
    """``forms.pullback_values`` through a stack of Jacobians against the same call one Jacobian at a time.

    ``values`` are ``(rows,)`` or ``(k, rows)`` arrays.  Key by key, each
    Jacobian's slice of the stacked pullback is non-finite on the rows where
    that Jacobian's own pullback is, agrees with it bitwise on the others once
    -0.0 reads as +0.0, and reads 0.0 for a key the one-Jacobian call leaves
    out (all of its minors exactly 0 there), which ``coeff_residual`` reads as
    a missing key.
    """
    got = forms.pullback_values(values, jacs)
    for k, jac in enumerate(jacs):
        one = forms.pullback_values({key: v if v.ndim == 1 else v[k] for key, v in values.items()}, jac)
        assert set(one) <= set(got), k
        for key, stacked in got.items():
            mine = stacked[k] + 0.0
            theirs = one[key] + 0.0 if key in one else np.zeros_like(mine)
            finite = np.isfinite(theirs)
            assert np.array_equal(np.isfinite(mine), finite), (k, key)
            assert np.array_equal(mine[finite].view(np.uint64), theirs[finite].view(np.uint64)), (k, key)
            assert np.array_equal(mine[~finite], theirs[~finite], equal_nan=True), (k, key)


@pytest.mark.parametrize("spec", list(MODELS))
def test_stacked_pullbacks_match_one_angle_at_a_time(spec):
    """omega, alpha = i_Y omega and g at the images of 64 samples under all
    16 invariance angles at once, pulled back through the stack of the
    action's constant Jacobians, on every chart: omega and alpha against
    ``forms.pullback_values`` at each angle, g bitwise against
    ``congruence`` on a broadcast copy of each angle's Jacobian."""
    for ci, cd in enumerate(MODELS[spec]().charts):
        pts = sample_domain(cd.chart, 64, np.random.default_rng([13, ci]))
        n = pts.shape[0]
        img, jacs = cd.action_map(INVARIANCE_THETAS, pts)
        img = img.reshape(-1, cd.chart.dim)
        _, (_, omega, alpha, _, g) = verifier._at_lowest_order(partial(verifier._invariant_fields, cd), img, 0)
        for coeffs in (omega, alpha):
            _assert_stacked_pullback({key: c.value.reshape(len(jacs), n) for key, c in coeffs.items()}, jacs)
        if g is not None:
            g = g.reshape(len(jacs), n, *g.shape[1:])
            stacked = congruence(jacs[:, None], g)
            for k, jac in enumerate(jacs):
                one = congruence(np.broadcast_to(jac, (n, *jac.shape)), g[k])
                assert np.array_equal(stacked[k].view(np.uint64), one.view(np.uint64)), (cd.chart.name, k)


_COEFFICIENT = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), degree=st.integers(1, 2), rows=st.integers(1, 6), angles=st.integers(1, 4))
def test_value_pullback_matches_on_nonfinite_rows(data, degree, rows, angles):
    """Random coefficient values, NaN and ±inf rows among them, in a random
    key order, through the action Jacobians of every catalog chart: one at a
    time against the jet pullback, and as a stack of Jacobians of one
    dimension, some from other charts, against the one-at-a-time pullback."""
    jac = data.draw(st.sampled_from(catalog_action_jacobians()))
    same_dim = [j for j in catalog_action_jacobians() if j.shape == jac.shape]
    jacs = np.stack([jac, *(data.draw(st.sampled_from(same_dim)) for _ in range(angles - 1))])
    keys = data.draw(st.permutations(list(combinations(range(jac.shape[0]), degree))))
    keys = keys[: data.draw(st.integers(1, len(keys)))]
    stacked = data.draw(st.booleans())
    shape = (angles, rows) if stacked else (rows,)
    size = angles * rows if stacked else rows
    draw = st.lists(_COEFFICIENT, min_size=size, max_size=size)
    values = {key: np.array(data.draw(draw)).reshape(shape) for key in keys}
    img = [jets.Jet(np.zeros(rows), None, None)] * jac.shape[0]
    with np.errstate(all="ignore"):
        for k, one in enumerate(jacs):
            at_k = {key: v[k] if stacked else v for key, v in values.items()}
            coeffs = {key: jets.Jet(v.copy(), None, None) for key, v in at_k.items()}
            _assert_value_pullback(at_k, one, pullback_coeffs(coeffs, img, one))
        _assert_stacked_pullback(values, jacs)


def _pulled_back(m, coeffs_fn, pts, order):
    """A form pulled back through ``m``, seeded at ``order`` at the images; the map's jets carry at least order 1."""
    img = m.forward(jets.seed(pts, order=max(order, 1)))
    tj = jets.seed(np.stack([j.value for j in img], axis=1), order=order)
    return pullback_coeffs(coeffs_fn(tj), img, image_jacobian(img))


@pytest.mark.parametrize("spec", list(MODELS))
def test_values_do_not_depend_on_seeded_order(spec):
    """Order-0 and order-1 jets give the order-2 values bitwise wherever they evaluate.

    The invariance check reads H, omega, Y and g at order 0 where they
    evaluate there, and the commutation check omega, g and X; the hamiltonian
    check reads order 1, and the symplectic and liouville checks read d omega,
    the kernel contraction and L_Y omega at order 1 where they evaluate there.
    Exactly the pinned (chart, field) pairs of ORDER_1_FIELDS raise
    JetOrderError at order 0, and those of ORDER_2_FIELDS at order 1, so a
    builder that starts reading a partial fails here.
    """
    raised, raised_at_1 = set(), set()
    for ci, cd in enumerate(MODELS[spec]().charts):
        pts = sample_domain(cd.chart, 12, np.random.default_rng([3, ci]))
        mpts = pts[cd.inside_margin(pts)]

        def seeded(field):
            return lambda p, k: field(jets.seed(p, order=k))

        # (field name, or None for a derived probe; the fields it reads; points; probe)
        probes = [
            ("H", ("H",), pts, seeded(lambda jc: cd.hamiltonian(jc).value)),
            ("omega", ("omega",), pts, seeded(cd.omega.coefficients)),
            ("Y", ("Y",), mpts, seeded(lambda jc: forms.field_values(cd.liouville, jc))),
            ("X", ("X",), mpts, seeded(lambda jc: forms.field_values(cd.generator, jc))),
            (None, ("omega", "Y"), mpts, seeded(cd.alpha().coefficients)),
        ]
        if cd.metric is not None:
            probes.append(("g", ("g",), mpts, seeded(lambda jc: forms.metric_matrix(cd.metric, jc))))
        for theta in (2 * np.pi / 16, np.pi, 2 * np.pi * 11 / 16):
            amap = jet_action_map(cd, theta)
            probes.append((None, ("omega",), pts, partial(_pulled_back, amap, cd.omega.coefficients)))
            probes.append((None, ("omega", "Y"), mpts, partial(_pulled_back, amap, cd.alpha().coefficients)))
        for name, reads, points, fn in probes:
            if not points.shape[0]:
                continue
            reference = fn(points, 2)
            _assert_same_values(fn(points, 1), reference)
            try:
                got = fn(points, 0)
            except JetOrderError:
                if name is None:
                    assert any((cd.chart.name, f) in raised for f in reads)
                else:
                    raised.add((cd.chart.name, name))
                continue
            _assert_same_values(got, reference)
        # quantities that consume one order: seeded at order 1 against order 2
        probes = [
            ("d omega", pts, seeded(lambda jc: forms.d_coeffs(cd.omega.coefficients(jc), cd.chart.dim))),
            ("L_Y omega", mpts, seeded(partial(liouville_residual, cd))),
        ]
        if cd.kernel is not None:
            kernel = seeded(lambda jc: forms.interior_coeffs(cd.kernel(jc), cd.omega.coefficients(jc)))
            probes.append(("i_K omega", pts, kernel))
        for name, points, fn in probes:
            if not points.shape[0]:
                continue
            try:
                got = fn(points, 1)
            except JetOrderError:
                raised_at_1.add((cd.chart.name, name))
                continue
            _assert_same_values(got, fn(points, 2))
        reference = moment_residual(cd, jets.seed(pts, order=2))
        _assert_same_values(moment_residual(cd, jets.seed(pts, order=1)), reference)
    assert raised == ORDER_1_FIELDS.get(spec, set())
    assert raised_at_1 == ORDER_2_FIELDS.get(spec, set())


def _poison(jc):
    """NaN where the second coordinate is positive, 1 elsewhere."""
    return np.where(jc[1].value > 0, np.nan, 1.0)


def _poisoned_field(field):
    return lambda jc: [c * _poison(jc) for c in field(jc)]


def _with_field(model, chart_index, **fields):
    charts = list(model.charts)
    charts[chart_index] = dataclasses.replace(charts[chart_index], **fields)
    return dataclasses.replace(model, charts=charts)


@pytest.mark.parametrize(
    "spec, chart_index",
    [("disc_d4(1,1)", 0), ("cotangent_s2()", 2)],
    ids=["nan_first", "nan_after_finite"],
)
def test_nonfinite_residual_fails_closed(spec, chart_index):
    model = registry.build(spec)
    cd = model.charts[chart_index]
    broken = _with_field(model, chart_index, hamiltonian=lambda jc: cd.hamiltonian(jc) * _poison(jc))
    rep = run_all(broken, RunConfig(samples=60))
    ham = [r for r in rep.results if r.check_id == "hamiltonian"][0]
    assert ham.passed is False
    assert ham.max_residual == NONFINITE_RESIDUAL
    assert f"chart {cd.chart.name!r}" in ham.note and "non-finite" in ham.note
    doc = json.loads(rep.to_json())
    assert not doc["overall"]


def _poisoned_metric(metric):
    """The metric times :func:`_poison`, as its jet matrix and as its ``values`` read."""

    def poisoned(jc):
        return [[c * _poison(jc) for c in row] for row in metric(jc)]

    poisoned.values = lambda jc: metric.values(jc) * _poison(jc)[:, None, None]
    return poisoned


# chart, poisoned field, non-finite residual count at 60 samples (omega
# poisons the omega and the alpha comparison, the metric only g's)
INVARIANCE_POISON = [
    ("disc_d4(1,1)", 0, "omega", 1520),
    ("disc_d4(1,1)", 0, "metric", 760),
    ("cotangent_s2()", 2, "omega", 1552),
    ("cotangent_s2()", 2, "metric", 776),
]


@pytest.mark.parametrize("spec, chart_index, field, count", INVARIANCE_POISON)
def test_nonfinite_invariance_fails_closed(spec, chart_index, field, count):
    """NaN in omega or g at the images fails invariance, counted on every
    sample and angle it reaches: skipping zero minors hides none of it."""
    model = registry.build(spec)
    cd = model.charts[chart_index]
    if field == "omega":
        poisoned = forms.KForm(lambda jc: {k: c * _poison(jc) for k, c in cd.omega.coefficients(jc).items()})
    else:
        poisoned = _poisoned_metric(cd.metric)
    config = RunConfig(samples=60)
    res = verifier.check_invariance(_with_field(model, chart_index, **{field: poisoned}), config)
    assert res.passed is False
    assert res.max_residual == NONFINITE_RESIDUAL
    assert res.note == f"chart {cd.chart.name!r}: {count} non-finite residuals"


@pytest.mark.parametrize("check, count", [("liouville", 28), ("commutation", 8)])
def test_margin_shortfall_is_noted(check, count):
    """A margin that admits only the cap x0 >= 0.8 of the ball leaves fewer
    samples than asked for after 20 draws, and says so; an empty one skips."""
    model = registry.build("disc_d4(1,1)")
    cap = _with_field(model, 0, liouville_domain=(lambda jc: 0.8 - jc[0],))
    res = getattr(verifier, f"check_{check}")(cap, RunConfig(samples=60))
    assert res.passed is True
    assert res.note == f"chart 'ball': {count} of 60 samples inside the declared margin"
    empty = _with_field(model, 0, liouville_domain=(lambda jc: 2.0 - jc[0],))
    res = getattr(verifier, f"check_{check}")(empty, RunConfig(samples=60))
    assert res.skipped == "chart 'ball': declared field margin left no samples"


def test_missing_contact_volume_fails():
    """A 2-form whose alpha ^ d(alpha) has no top coefficient reads as contact volume 0: a FAIL, not a raise."""
    model = registry.build("disc_d4(1,1)")
    flat = forms.KForm(lambda jc: {(0, 1): jets.constant(1.0, jc[0])})
    res = verifier.check_contact_boundary(_with_field(model, 0, omega=flat), RunConfig(samples=60))
    assert res.passed is False
    assert res.max_residual == verifier.CONTACT_FLOOR
    assert "min contact volume margin 0.000e+00" in res.note


@pytest.mark.parametrize("field", ["liouville", "omega"])
def test_nonfinite_contact_shortfall_fails(field):
    model = registry.build("disc_d4(1,1)")
    cd = model.charts[0]
    if field == "liouville":
        broken = _with_field(model, 0, liouville=_poisoned_field(cd.liouville))
    else:
        poisoned = forms.KForm(lambda jc: {k: c * _poison(jc) for k, c in cd.omega.coefficients(jc).items()})
        broken = _with_field(model, 0, omega=poisoned)
    res = verifier.check_contact_boundary(broken, RunConfig(samples=60))
    assert res.passed is False
    assert res.max_residual == NONFINITE_RESIDUAL
    assert "chart 'ball'" in res.note and "non-finite" in res.note
    json.dumps(res.to_entry(), allow_nan=False)
