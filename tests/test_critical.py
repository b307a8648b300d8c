"""Fixed-point location, Morse classification, extrema, and connectivity."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamflow import basic, critical, jets, registry
from hamflow.chart import Chart, sample_boundary, sample_domain
from hamflow.errors import NotCritical
from hamflow.forms import field_values
from hamflow.model import HamiltonianModel
from oracles import fixed_points_by_draw, merged_groups, nearest_neighbour_distances, pairs_within, union_find_labels


@pytest.mark.parametrize(
    "spec, index",
    [("disc_d4(1,1)", 0), ("disc_d4(1,-1)", 2), ("disc_d4(-1,-2)", 4)],
)
def test_ball_origin_index_follows_weight_signs(spec, index):
    clusters = critical.find_fixed_points(registry.build(spec))
    assert len(clusters) == 1
    c = clusters[0]
    assert c.index == index
    assert c.nullity == 0
    assert c.value == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(c.point) < 1e-8
    assert not c.touches_boundary


FIXED_POINT_MODELS = list(registry.ZOO) + [
    "attach_2handle(disc_d4(1,-1))",
    "blowup_d4(3,1,0.2)",
    "blowup_d4(2,-3,0.25)",
    "blowup_d4(1,1,0.2)",
    "disc_d4(-1,-2)",
]


@pytest.mark.parametrize("spec", FIXED_POINT_MODELS)
def test_cluster_points_are_exact_generator_zeros(spec):
    model = registry.build(spec)
    for c in critical.find_fixed_points(model):
        gen = field_values(model.charts[c.chart_index].generator, jets.seed(c.point[None, :], order=0))
        assert np.abs(gen).max() < 1e-15, (spec, c)


@settings(max_examples=40, deadline=None)
@given(
    weights=st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda w: math.gcd(*w) == 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_disc_fixed_set_follows_its_weights(weights, seed):
    """One fixed stratum at H = 0 with index 2 per negative weight: the
    origin, or the fixed disc (nullity 2) when a weight is 0."""
    clusters = critical.find_fixed_points(basic.disc_d4(*weights), seed=seed)
    assert len(clusters) == 1
    c = clusters[0]
    assert c.index == 2 * sum(w < 0 for w in weights)
    assert c.value == 0.0
    if all(weights):
        assert c.nullity == 0 and not c.point.any()
    else:
        assert c.nullity == 2


def test_handle_saddle_is_index_two():
    mod = registry.build("weinstein_2handle()")
    clusters = critical.find_fixed_points(mod)
    assert [c.index for c in clusters] == [2]
    assert critical.hessian_data(mod, 0, np.zeros(4))[0] == 2
    _, nullity, eigs = critical.hessian_data(mod, 0, np.zeros(4))
    assert nullity == 0
    assert np.allclose(np.sort(eigs), [-1.0, -1.0, 1.0, 1.0], atol=1e-12)


def test_one_handle_has_a_fixed_surface():
    clusters = critical.find_fixed_points(registry.build("weinstein_1handle(1)"))
    assert len(clusters) == 1
    c = clusters[0]
    assert (c.index, c.nullity) == (0, 2)
    assert c.members > 10


def test_blowup_carries_two_fixed_points_with_shifted_value():
    clusters = critical.find_fixed_points(registry.build("blowup_d4(3,1,0.2)"))
    assert [round(c.value, 12) for c in clusters] == [0.04, 0.12]
    assert [c.index for c in clusters] == [0, 2]
    assert all(c.nullity == 0 for c in clusters)
    assert {c.chart_index for c in clusters} == {0, 1}


def test_identity_weight_blowup_sphere_is_pointwise_fixed():
    mod = registry.build("blowup_d4(1,1,0.2)")
    clusters = critical.find_fixed_points(mod)
    assert len(clusters) == 1
    assert clusters[0].nullity == 2
    rng = np.random.default_rng(3)
    from hamflow import forms, jets

    v = rng.uniform(-0.9, 0.9, size=(20, 2))
    pts = np.concatenate([np.zeros((20, 2)), v], axis=1)
    x = forms.field_values(mod.charts[0].generator, jets.seed(pts, order=1))
    assert np.abs(x).max() < 1e-9


def test_quotient_surface_merges_across_charts():
    clusters = critical.find_fixed_points(registry.build("prequantization_s2()"))
    assert len(clusters) == 1
    assert clusters[0].nullity == 2
    assert clusters[0].members > 50


def test_attachment_creates_one_interior_saddle():
    mod = registry.build("attach_2handle(s1_d3(1,0))")
    clusters = critical.find_fixed_points(mod)
    assert len(clusters) == 1
    c = clusters[0]
    assert c.index == 2
    assert c.chart_index == 1
    assert not c.touches_boundary


@pytest.mark.parametrize(
    "spec, draws",
    [("disc_d4(1,1)", []), ("weinstein_2handle()", []), ("disc_d4(1,0)", [critical.FIXED_POINT_STARTS])],
)
def test_isolated_fixed_points_take_no_draws(monkeypatch, spec, draws):
    """A chart whose weight table moves every coordinate has the origin as its fixed set.

    It is tested as it is, with no domain draw; a chart with a coordinate of
    weight 0 still draws its FIXED_POINT_STARTS points.
    """
    calls = []

    def recorded(chart, n, rng):
        calls.append(n)
        return sample_domain(chart, n, rng)

    monkeypatch.setattr(critical, "sample_domain", recorded)
    clusters = critical.find_fixed_points(registry.build(spec))
    assert calls == draws
    assert len(clusters) == 1


@pytest.mark.parametrize("spec", ["s1_d3(2,1)", "cotangent_t2(1,0)", "free_action_planar(2)"])
def test_free_models_have_no_fixed_points(spec):
    assert critical.find_fixed_points(registry.build(spec)) == []


def test_hessian_data_rejects_regular_points():
    mod = registry.build("disc_d4(1,1)")
    with pytest.raises(NotCritical):
        critical.hessian_data(mod, 0, np.array([0.3, 0.0, 0.0, 0.0]))[0]


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("disc_d4(1,1)", 0),
        ("disc_d4(1,0)", 1),
        ("weinstein_1handle(1)", 1),
        ("prequantization_s2()", 1),
        ("disc_bundle_over_surface()", 1),
    ],
)
def test_surface_census(spec, expected):
    assert critical.critical_surface_census(registry.build(spec)) == expected


def test_extrema_interior_min_for_positive_weights():
    rep = critical.extrema_analysis(registry.build("disc_d4(1,1)"), starts=6)
    assert rep.interior_min_clusters == 1
    assert rep.interior_max_clusters == 0
    assert rep.max_on_boundary and not rep.min_on_boundary
    assert not rep.portrait_both_signs
    assert rep.legendrian_consistent


def test_extrema_both_on_boundary_for_mixed_weights():
    rep = critical.extrema_analysis(registry.build("disc_d4(1,-1)"), starts=6)
    assert rep.interior_min_clusters == 0
    assert rep.interior_max_clusters == 0
    assert rep.max_on_boundary and rep.min_on_boundary
    assert rep.portrait_both_signs
    assert rep.legendrian_consistent


@pytest.mark.parametrize(
    "spec",
    [
        "disc_d4(1,1)",
        "s1_d3(1,0)",
        "cotangent_t2(1,0)",
        "free_action_planar(3)",
        "prequantization_s2()",
        "blowup_d4(1,-1,0.2)",
        "attach_2handle(s1_d3(1,0))",
    ],
)
def test_boundary_is_connected(spec):
    assert critical.boundary_connectivity(registry.build(spec), samples=900) == 1


def test_connectivity_counts_a_split_boundary():
    base = basic.disc_d4(1, 1)
    cd = base.charts[0]

    def two_balls(jc):
        d1 = (jc[0] - 1.5) ** 2 + jc[1] ** 2 + jc[2] ** 2 + jc[3] ** 2
        d2 = (jc[0] + 1.5) ** 2 + jc[1] ** 2 + jc[2] ** 2 + jc[3] ** 2
        return (d1 - 0.64) * (d2 - 0.64)

    chart = dataclasses.replace(
        cd.chart,
        name="two_balls",
        box_lo=(-2.5, -2.5, -2.5, -2.5),
        box_hi=(2.5, 2.5, 2.5, 2.5),
        domain=(two_balls,),
        boundary=two_balls,
    )
    two_sided = HamiltonianModel(
        name="split_test",
        params={},
        charts=[dataclasses.replace(cd, chart=chart)],
    )
    assert critical.boundary_connectivity(two_sided, samples=800) == 2


@pytest.mark.parametrize("spec", ["attach_2handle(s1_d3(1,0))", "attach_2handle(disc_d4(1,-1))"])
def test_links_cross_only_into_the_destination_chart(spec):
    # the base's entry predicate accepts boundary points whose handle image
    # lies outside the handle chart; no flow crosses there, so no link may
    model = registry.build(spec)
    clouds, radii = {}, {}
    for ci, cd in enumerate(model.charts):
        clouds[ci] = sample_boundary(cd.chart, 1000, np.random.default_rng([0, 31, ci]), accept=cd.boundary_accept)
        radii[ci] = critical._adaptive_radius(cd.chart, clouds[ci])
    src, dst = critical._links(model, clouds, radii)
    chart_of = np.concatenate([np.full(pts.shape[0], ci) for ci, pts in clouds.items()])
    row_of = np.concatenate([np.arange(pts.shape[0]) for pts in clouds.values()])
    crossing = chart_of[src] != chart_of[dst]
    justified = np.zeros(src.size, dtype=bool)
    for tr in model.transitions:
        pts = clouds[tr.src]
        ok = np.flatnonzero(tr.valid(pts))
        inside = np.zeros(pts.shape[0], dtype=bool)
        images = np.full(pts.shape, np.nan)
        images[ok] = tr.map.apply(pts[ok])
        inside[ok] = model.charts[tr.dst].chart.contains(images[ok], slack=1e-6)
        e = np.flatnonzero((chart_of[src] == tr.src) & (chart_of[dst] == tr.dst) & inside[row_of[src]])
        d = model.charts[tr.dst].chart.distance(images[row_of[src[e]]], clouds[tr.dst][row_of[dst[e]]])
        justified[e] |= d < max(radii[tr.src], radii[tr.dst])
    assert crossing.sum() > 100
    assert justified[crossing].all()


@pytest.mark.parametrize(
    "spec",
    ["cotangent_s2()", "prequantization_s2()", "blowup_d4(1,1,0.2)", "attach_2handle(s1_d3(1,0))", "weinstein_1handle(1)"],
)
def test_merge_groups_match_the_pairwise_rule(spec):
    # fixed-set projections (flat surfaces, clusters) mixed with plain draws,
    # in shuffled chart order, so the grouping must carry rows back in order
    model = registry.build(spec)
    labeled = []
    for ci, cd in enumerate(model.charts):
        for k, p in enumerate(sample_domain(cd.chart, 16, np.random.default_rng([3, ci]))):
            keys = [key for key, w in cd.weights.items() if w]
            if k % 2 and not any(len(key) == 1 for key in keys):
                for key in keys:
                    p[list(key)] = 0.0
                if not cd.chart.contains(p, slack=1e-6)[0]:
                    continue
            labeled.append((ci, p))
    labeled = [labeled[k] for k in np.random.default_rng(4).permutation(len(labeled))]
    groups = critical._merge_groups(model, labeled)
    expected = merged_groups(model, labeled, critical.CLUSTER_RADIUS, 1e-5, critical.SURFACE_VALUE_TOL)
    assert [[id(entry) for entry in group] for group in groups] == [
        [id(labeled[k]) for k in group] for group in expected
    ]
    assert any(len(group) > 1 for group in expected)


def test_merge_groups_of_no_points_is_empty():
    assert critical._merge_groups(registry.build("cotangent_s2()"), []) == []


def _records(clusters):
    return [
        (c.chart_index, c.point.tobytes(), repr(c.value), c.index, c.nullity, c.touches_boundary, c.members)
        for c in clusters
    ]


@pytest.mark.parametrize(
    "spec",
    list(registry.ZOO)
    + ["attach_2handle(disc_d4(1,-1))", "blowup_d4(3,1,0.2)", "blowup_d4(2,-3,0.25)", "disc_d4(2,-3)"],
)
def test_fixed_points_match_the_per_draw_loop(spec):
    model = registry.build(spec)
    for seed in (0, 1, 97):
        assert _records(critical.find_fixed_points(model, seed=seed)) == _records(fixed_points_by_draw(model, seed))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing(),
                max_size=3 * n,
            ),
        )
    )
)
def test_components_match_union_find(case):
    n, edges = case
    src = [i for i, _ in edges]
    dst = [j for _, j in edges]
    assert critical._components(n, src, dst).tolist() == union_find_labels(n, edges)


# a chart with one periodic coordinate, so that pairs near t = 0 and t = 2 pi
# are close; clouds of up to 2,500 rows put the first cloud's row count on
# both sides of one distance block (128 rows against 2,000)
CLOUD_CHART = Chart(
    name="cloud", coords=("t", "x", "y"), periodic=(True, False, False),
    box_lo=(0.0, -1.0, -1.0), box_hi=(2 * np.pi, 1.0, 1.0),
)


def _cloud(rng, n):
    return rng.uniform(CLOUD_CHART.box_lo, CLOUD_CHART.box_hi, size=(n, 3))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_a=st.integers(1, 300),
    n_b=st.integers(1, 2500),
    same=st.booleans(),
)
@example(seed=1, n_a=128, n_b=2000, same=False)
@example(seed=2, n_a=129, n_b=2000, same=False)
@example(seed=3, n_a=300, n_b=2001, same=False)
@example(seed=4, n_a=257, n_b=257, same=True)
def test_pairs_within_match_every_pair(seed, n_a, n_b, same):
    rng = np.random.default_rng(seed)
    a = _cloud(rng, n_a)
    b = a if same else _cloud(rng, n_b)
    r = float(rng.uniform(0.05, 0.8))
    i, j = critical._pairs_within(CLOUD_CHART, a, b, r)
    want_i, want_j = pairs_within(CLOUD_CHART, a, b, r)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 2500), dup=st.booleans())
@example(seed=1, m=0, dup=False)
@example(seed=2, m=1, dup=False)
@example(seed=3, m=2000, dup=False)
@example(seed=4, m=2001, dup=True)
def test_adaptive_radius_matches_every_pair(seed, m, dup):
    rng = np.random.default_rng(seed)
    pts = _cloud(rng, m)
    if dup and m > 3:
        pts[m // 2] = pts[1]  # a repeated point is its copy's nearest neighbour at 0
    got = critical._adaptive_radius(CLOUD_CHART, pts)
    if m < 2:
        assert got == critical.CLUSTER_RADIUS
    else:
        nn = nearest_neighbour_distances(CLOUD_CHART, pts[:400], pts)
        assert got == 3.0 * float(np.median(nn))


# repr of every ExtremaReport field for the flow_extrema models with two
# starts per chart; any change that keeps the stepper must leave each
# report bit for bit as it was
EXTREMA_PINS = {
    ("disc_d4(1,1)", 0): ('0', '1', '0.5', '9.658738562292696e-17', 'True', 'False', 'False', 'True', '0'),
    ("disc_d4(1,1)", 1): ('0', '1', '0.5', '1.405180197601939e-16', 'True', 'False', 'False', 'True', '0'),
    ("s1_d3(2,1)", 0): ('0', '0', '1.7287145467801088', '-1.7122988306216462', 'True', 'True', 'True', 'True', '0'),
    ("s1_d3(2,1)", 1): ('0', '0', '1.6447708797780751', '-1.62652100465979', 'True', 'True', 'True', 'True', '0'),
    ("attach_2handle(s1_d3(1,0))", 0): ('0', '0', '0.8729028120571424', '-0.8729028120571424', 'True', 'True', 'True', 'True', '0'),
    ("attach_2handle(s1_d3(1,0))", 1): ('0', '0', '0.790741750579246', '-0.790741750579246', 'True', 'True', 'True', 'True', '0'),
    ("prequantization_s2()", 0): ('0', '1', '0.5', '7.557997521332643e-17', 'True', 'False', 'False', 'True', '0'),
    ("prequantization_s2()", 1): ('0', '1', '0.5', '6.091614336917377e-17', 'True', 'False', 'False', 'True', '0'),
}


def test_extrema_reports_match_pins():
    got = {}
    for spec, seed in EXTREMA_PINS:
        rep = critical.extrema_analysis(registry.build(spec), seed=seed, starts=2)
        got[spec, seed] = tuple(repr(getattr(rep, f.name)) for f in dataclasses.fields(rep))
    assert got == EXTREMA_PINS
