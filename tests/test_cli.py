"""End-to-end command-line behavior: exit codes, formats, determinism."""

import csv
import json

import pytest

from hamflow import cli, registry
from hamflow.model import HamiltonianModel


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_text_shows_catalog_and_examples(capsys):
    code, out, _ = run(capsys, ["list"])
    assert code == 0
    assert "disc_d4(m,n)" in out
    assert "prequantization_s2()" in out
    assert "attach_2handle(s1_d3(1,0))" in out


def test_list_json_is_machine_readable(capsys):
    code, out, _ = run(capsys, ["list", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["catalog"]) >= 10
    assert len(data["zoo"]) == 18


def test_verify_passing_model_exits_zero(capsys):
    code, out, _ = run(capsys, ["verify", "disc_d4(1,-1)", "--samples", "60", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["overall"] is True
    assert data["critical"] == 0
    assert [c["id"] for c in data["checks"]] == list(cli.verifier.CHECK_IDS)


def test_verify_embeds_surface_census(capsys):
    code, out, _ = run(
        capsys, ["verify", "weinstein_1handle(1)", "--samples", "40", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["critical"] == 1


def test_unattainable_tolerance_exits_one(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "disc_d4(1,1)", "--samples", "40", "--tol", "invariance=1e-30"],
    )
    assert code == 1
    assert "FAIL" in out


def test_tolerance_override_for_all_checks(capsys):
    code, _, _ = run(capsys, ["verify", "disc_d4(1,1)", "--samples", "40", "--tol", "1e-30"])
    assert code == 1
    code, _, _ = run(capsys, ["verify", "disc_d4(1,1)", "--samples", "40", "--tol", "0.5"])
    assert code == 0


def test_unknown_model_exits_two(capsys):
    code, _, err = run(capsys, ["verify", "nosuch(1)"])
    assert code == 2
    assert "unknown model" in err


def test_ineffective_weights_exit_two(capsys):
    code, _, err = run(capsys, ["verify", "disc_d4(2,4)"])
    assert code == 2
    assert "IneffectiveAction" in err


def test_bad_tolerance_name_exits_two(capsys):
    code, _, err = run(capsys, ["verify", "disc_d4(1,1)", "--tol", "bogus=1.0"])
    assert code == 2
    assert "unknown check" in err


def test_missing_subcommand_argument_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 2


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(
            capsys,
            ["verify", "s1_d3(2,1)", "--samples", "70", "--seed", "3",
             "--format", "json", "--output", str(target)],
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_json_is_report_bytes(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "s1_d3(2,1)", "--samples", "70", "--seed", "3", "--format", "json"],
    )
    assert code == 0
    tolerances = dict(cli.verifier.DEFAULT_TOLERANCES)
    config = cli.verifier.RunConfig(seed=3, samples=70, tolerances=tolerances)
    report = cli._verified_report(registry.build("s1_d3(2,1)"), config)
    assert out.removesuffix("\n").encode("utf-8") == report.to_json()


def test_verify_csv_has_status_rows(capsys):
    code, out, _ = run(capsys, ["verify", "disc_d4(1,1)", "--samples", "40", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(out.strip().splitlines()))
    assert rows[0] == ["check", "max_residual", "status", "note"]
    assert rows[-1][0] == "overall"
    assert all(r[2] in ("passed", "failed", "skipped") for r in rows[1:])


def test_flow_ascent_reaches_boundary(tmp_path, capsys):
    traj = tmp_path / "path.csv"
    code, out, _ = run(
        capsys,
        ["flow", "s1_d3(1,0)", "--start", "0.3,0.2,0.1,0.4",
         "--trajectory", str(traj), "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["termination"] == "boundary"
    assert data["monotone"] is True
    assert data["h_end"] > data["h_start"]
    rows = list(csv.reader(traj.read_text().splitlines()))
    assert rows[0][:2] == ["t", "chart"]
    assert len(rows) == data["steps"] + 1


def test_flow_from_boundary_with_outward_velocity(capsys):
    code, out, _ = run(
        capsys,
        ["flow", "s1_d3(1,0)", "--start", "0.3,0.2,0.1,0.9746794344808963",
         "--direction", "up", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["termination"] == "immediate_exit"


def test_flow_descent_from_negative_region_moves_inward(capsys):
    code, out, _ = run(
        capsys,
        ["flow", "s1_d3(1,0)", "--start", "0.3,0.2,0.1,-0.9746794344808963",
         "--direction", "up", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["termination"] == "boundary"
    assert data["h_end"] > 0


def test_flow_out_of_domain_start_exits_two(capsys):
    code, _, err = run(capsys, ["flow", "disc_d4(1,1)", "--start", "5,0,0,0"])
    assert code == 2
    assert "outside" in err


def test_flow_wrong_dimension_exits_two(capsys):
    code, _, err = run(capsys, ["flow", "disc_d4(1,1)", "--start", "0.1,0.2"])
    assert code == 2
    assert "coordinates" in err


@pytest.mark.parametrize("budget", ["nan", "-1", "0"])
def test_flow_rejects_nonpositive_or_nan_max_time(capsys, budget):
    code, out, err = run(
        capsys,
        ["flow", "disc_d4(1,1)", "--start", "0.1,0.05,0,0.02", f"--max-time={budget}"],
    )
    assert code == 2
    assert out == ""
    assert "max_time" in err


def test_classify_orbit_reports_disc(capsys):
    code, out, _ = run(
        capsys,
        ["flow", "disc_d4(1,1)", "--start", "0.3,0,0,0", "--classify-orbit", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "disc"
    assert data["up_termination"] == "boundary"
    assert data["down_termination"] == "critical_set"


def test_legendrian_components_and_fields(capsys):
    code, out, _ = run(capsys, ["legendrian", "cotangent_t2(1,0)", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    for comp in data["components"]:
        assert set(comp) >= {"representative", "H_residual", "stabilizer"}
        assert comp["H_residual"] < 1e-8
        assert comp["stabilizer"] == 1


def test_legendrian_absent_set_exits_zero(capsys):
    code, out, _ = run(capsys, ["legendrian", "disc_d4(1,1)", "--format", "json"])
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_legendrian_locus_height_for_double_translation_weight(capsys):
    code, out, _ = run(capsys, ["legendrian", "s1_d3(2,1)", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    comp = data["components"][0]
    assert comp["representative"][3] == pytest.approx(2.0 - 5.0**0.5, abs=1e-6)
    assert comp["stabilizer"] == 1


def test_build_blowup_reports_exceptional_stabilizer(capsys):
    code, out, _ = run(
        capsys,
        ["build", "blowup", "--weights", "3", "1", "--size", "0.1",
         "--samples", "60", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["report"]["overall"] is True
    assert data["model"]["meta"]["sphere_weight"] == 2


def test_build_attach_two_handle_passes(capsys):
    code, out, _ = run(
        capsys,
        ["build", "attach-2handle", "--base", "s1_d3(1,0)", "--samples", "60", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["report"]["overall"] is True
    assert len(data["model"]["charts"]) == 2


def test_build_free_action_with_hole_centers(capsys):
    code, out, _ = run(
        capsys,
        ["build", "free-action", "--k", "2", "--holes", "0,0", "--samples", "60"],
    )
    assert code == 0
    assert "overall: pass" in out


def test_build_precondition_violation_exits_two(capsys):
    code, _, err = run(capsys, ["build", "blowup", "--weights", "2", "4"])
    assert code == 2
    assert "IneffectiveAction" in err


def test_decompositions_output(capsys):
    code, out, _ = run(capsys, ["decompositions", "0"])
    assert code == 0
    assert out.strip() == "(h=0,k=1)"
    code, out, _ = run(capsys, ["decompositions", "3"])
    assert code == 0
    assert out.strip().splitlines() == ["(h=0,k=4)", "(h=1,k=2)"]


def test_decompositions_rows_satisfy_constraint(capsys):
    code, out, _ = run(capsys, ["decompositions", "10", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert all(2 * r["h"] + r["k"] == 11 for r in rows)
    assert len(rows) == 6


def test_decompositions_negative_genus_exits_two(capsys):
    code, _, err = run(capsys, ["decompositions", "-1"])
    assert code == 2
    assert "nonnegative" in err


# ----------------------------------------------------------------------
# catalog parsing


def test_zoo_has_eighteen_buildable_entries():
    assert len(registry.ZOO) == 18
    for spec in registry.ZOO:
        model = registry.build(spec)
        assert isinstance(model, HamiltonianModel)
        assert model.charts


def test_build_rejects_unknown_names_and_bad_syntax():
    with pytest.raises(KeyError):
        registry.build("mystery(1)")
    with pytest.raises(ValueError):
        registry.build("disc_d4(1,1")
    with pytest.raises(ValueError):
        registry.build("disc_d4")
    with pytest.raises(ValueError):
        registry.build("disc_d4(one,two)")


def test_build_accepts_keyword_arguments():
    model = registry.build("blowup_d4(1,-1,size=0.3)")
    assert model.params["size"] == pytest.approx(0.3)
