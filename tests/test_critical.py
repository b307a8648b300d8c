"""Fixed-point location, Morse classification, extrema, and connectivity."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflow import basic, critical, registry
from hamflow.errors import NotCritical
from hamflow.model import HamiltonianModel
from oracles import union_find_labels


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
    assert (c.index, c.nullity, c.set_dimension) == (0, 2, 2)
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
