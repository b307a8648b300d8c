"""End-to-end command-line behavior: exit codes, formats, determinism."""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hamflow import cli, flow, registry, verifier
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


LIST_SHA256 = {
    "text": "02dc4ec8df70c52f4890f96de628fe521a440d83fb97f2a358df9122355603a1",
    "json": "4e26b0b51ae3addf719aef2ff3a00ee04e0c0aa503718a85b1206d02537052cb",
}


@pytest.mark.parametrize("fmt", sorted(LIST_SHA256))
def test_list_bytes_are_pinned(capsys, fmt):
    """Each catalog signature is rendered from its builder's parameters, byte for byte as pinned."""
    code, out, _ = run(capsys, ["list", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LIST_SHA256[fmt]


def test_list_into_a_closed_pipe_keeps_its_status():
    """A reader that has already closed the pipe (``hamflow list | head -0``)
    costs the command neither its exit status nor a traceback."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hamflow.cli", "list"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["list", "--output", "{missing}"],
        ["flow", "s1_d3(1,0)", "--start", "0.3,0.2,0.1,0.4", "--trajectory", "{missing}"],
    ],
)
def test_unwritable_output_path_exits_two(tmp_path, capsys, argv):
    """A path in a directory that does not exist is a bad request, not a failed check."""
    missing = str(tmp_path / "missing" / "x.json")
    code, out, err = run(capsys, [a.format(missing=missing) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and missing in err
    assert "Traceback" not in err


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
    assert 'error: "' not in err


@pytest.mark.parametrize(
    "spec",
    [
        "disc_d4(1,-1",
        "disc_d4",
        "disc_d4(1,-1)x",
        "disc_d4(,1)",
        "disc_d4(a,1)",
        "disc_d4(1,2,3)",
        "disc_d4(m=1,q=2)",
        "attach_2handle(s1_d3(1,0)",
        "(1,1)",
        "disc_d4(1))(",
        "s1_d3(s1_d3(1,0),0)",
        "attach_2handle(1)",
        "blowup_d4(1,-1,disc_d4(1,1))",
        "free_action_planar(2,1)",
        "disc_d4(True,1)",
        "disc_d4('a',1)",
        "disc_d4({[]: 1},1)",
        "attach_2handle(s1_d3(1,0),eps=disc_d4(1,1))",
        "free_action_planar(k=2,holes=1)",
        "disc_d4(m=1,m=2)",
        "disc_d4(**x)",
    ],
)
def test_malformed_spec_exits_two(capsys, spec):
    """The spec parser refuses a malformed spec, or an argument of the wrong kind, with one error line."""
    code, out, err = run(capsys, ["verify", spec])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1


def test_ineffective_weights_exit_two(capsys):
    code, _, err = run(capsys, ["verify", "disc_d4(2,4)"])
    assert code == 2
    assert "IneffectiveAction" in err


def test_non_integer_weight_exits_two(capsys):
    """A weight-1.5 rotation has no period 2*pi; it is refused, not checked as weight 1."""
    code, out, err = run(capsys, ["verify", "disc_d4(1.5,1)"])
    assert code == 2
    assert out == ""
    assert "1.5" in err and "Traceback" not in err


@pytest.mark.parametrize("holes", ["1.5", "0.5"])
def test_non_integer_hole_count_exits_two(capsys, holes):
    """A 1.5-hole disc bundle is refused, not built with int(1.5) = 1 hole."""
    code, out, err = run(capsys, ["verify", f"disc_bundle_over_surface({holes})"])
    assert code == 2
    assert out == ""
    assert holes in err and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("tol", ["nan", "inf", "invariance=nan", "liouville=-inf", "0", "-1e-8"])
def test_tolerance_not_finite_and_positive_exits_two(capsys, tol, fmt):
    """A NaN tolerance used to fail six checks (exit 1), and an infinite one to pass them (exit 0)."""
    code, out, err = run(capsys, ["verify", "disc_d4(1,1)", "--samples", "20", f"--tol={tol}", "--format", fmt])
    assert code == 2
    assert out == ""
    assert "finite and positive" in err and "Traceback" not in err


def test_census_descends_from_the_seed(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli.critical, "critical_surface_census", lambda model, seed=0: seen.append(seed) or 0)
    code, _, _ = run(capsys, ["verify", "disc_d4(1,1)", "--samples", "20", "--seed", "7"])
    assert code == 0
    assert seen == [7]


def test_bad_tolerance_name_exits_two(capsys):
    code, _, err = run(capsys, ["verify", "disc_d4(1,1)", "--tol", "bogus=1.0"])
    assert code == 2
    assert "unknown check 'bogus'" in err and "known checks: symplectic" in err
    assert 'error: "' not in err


@pytest.mark.parametrize("spec", ["disc_d4(1,2,3)", "disc_d4(m=1,q=2)"])
def test_spec_arguments_not_matching_the_builder_exit_two(capsys, spec):
    code, _, err = run(capsys, ["verify", spec])
    assert code == 2
    assert err.count("error:") == 1 and "Traceback" not in err
    assert "disc_d4(m,n)" in err


@pytest.mark.parametrize("seed", ["-1", "1.5"])
@pytest.mark.parametrize(
    "argv", [["verify", "disc_d4(1,1)"], ["legendrian", "disc_d4(1,1)"], ["build", "free_action_planar(1)"]]
)
def test_bad_seed_is_refused_by_the_parser(capsys, argv, seed):
    """A negative seed used to reach NumPy and exit 2 with ``expected non-negative integer``, naming no option."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: expected a non-negative integer" in err


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


@pytest.mark.parametrize("command", ["flow", "orbit"])
@pytest.mark.parametrize(
    "start, chart, message",
    [("5,0,0,0", "0", "outside"), ("0.1,0.2", "0", "coordinates"), ("0.1,0,0,0", "1", "out of range")],
)
def test_flow_and_orbit_refuse_the_same_bad_starts(capsys, command, start, chart, message):
    code, out, err = run(capsys, [command, "disc_d4(1,1)", "--start", start, "--chart", chart])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("command", ["flow", "orbit"])
def test_flow_and_orbit_refuse_a_chart_with_no_metric(capsys, command):
    start = "4.0,-0.37,0.26,0.02,5.1"  # inside the domain of prequantization_s2()'s chart 3
    code, out, err = run(capsys, [command, "prequantization_s2()", "--chart", "3", "--start", start])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "chart 'total_north' carries no metric" in err


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
        ["orbit", "disc_d4(1,1)", "--start", "0.3,0,0,0", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "disc"
    assert data["up_termination"] == "boundary"
    assert data["down_termination"] == "critical_set"


def test_flow_no_longer_takes_classify_orbit(capsys):
    """Orbit classification reads neither --direction, --max-time nor --trajectory, so it is not a flow option."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["flow", "disc_d4(2,3)", "--start", "0.5,0,0,0", "--classify-orbit"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --classify-orbit" in capsys.readouterr().err


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


def test_legendrian_runs_the_library_detector_at_its_seed(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(
        cli.flow, "detect_legendrian_set", lambda model, seed=0: seen.append((model.name, seed)) or flow.LegendrianSet()
    )
    code, out, _ = run(capsys, ["legendrian", "disc_d4(1,1)", "--seed", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["count"] == 0
    assert seen == [("disc_d4", 4)]


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
        ["build", "blowup_d4(3,1,0.1)", "--samples", "60", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["report"]["overall"] is True
    assert data["model"]["meta"]["sphere_weight"] == 2


def test_build_attach_two_handle_passes(capsys):
    code, out, _ = run(
        capsys,
        ["build", "attach_2handle(s1_d3(1,0))", "--samples", "60", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["report"]["overall"] is True
    assert len(data["model"]["charts"]) == 2


def test_build_free_action_with_hole_centers(capsys):
    """Two boundary circles: the default layout puts the one hole center at the origin."""
    code, out, _ = run(
        capsys,
        ["build", "free_action_planar(2)", "--samples", "60"],
    )
    assert code == 0
    assert "overall: pass" in out


def test_build_precondition_violation_exits_two(capsys):
    code, _, err = run(capsys, ["build", "disc_d4(2,4)"])
    assert code == 2
    assert "IneffectiveAction" in err


@pytest.mark.parametrize("spec", registry.ZOO)
def test_build_descriptor_is_canonical_json(spec):
    """The descriptor ``build`` prints holds only JSON values, for every standard example."""
    model = registry.build(spec)
    descriptor = {
        "name": model.name,
        "params": model.params,
        "charts": [cd.chart.name for cd in model.charts],
        "meta": model.meta,
    }
    assert json.loads(verifier.canonical_json(descriptor))["name"] == model.name


@pytest.mark.parametrize("spec", registry.ZOO)
def test_build_takes_every_standard_example(capsys, spec):
    code, out, err = run(capsys, ["build", spec, "--samples", "50", "--format", "json"])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert set(data) == {"model", "report"}
    assert set(data["model"]) == {"name", "params", "charts", "meta"}
    assert data["model"]["name"] == spec.partition("(")[0]
    assert data["report"]["overall"] is True


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


@pytest.mark.parametrize(
    "argv",
    [
        ["list", "--seed", "5"],
        ["list", "--seed", "5", "--samples", "-3", "--tol", "nan"],
        ["decompositions", "3", "--tol", "nan", "--samples", "0"],
        ["flow", "disc_d4(1,1)", "--start", "0.1,0,0,0", "--tol", "x=nan", "--samples", "0"],
        ["legendrian", "disc_d4(1,1)", "--tol", "nan"],
        ["legendrian", "disc_d4(1,1)", "--samples", "0"],
    ],
)
def test_option_a_subcommand_does_not_take_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


CHEAP_INVOCATIONS = [
    ["list"],
    ["verify", "disc_d4(1,1)", "--samples", "20"],
    ["flow", "disc_d4(1,1)", "--start", "0.1,0.05,0,0.02", "--max-time", "0.01"],
    ["legendrian", "disc_d4(1,1)"],
    ["orbit", "disc_d4(1,1)", "--start", "0.3,0,0,0", "--chart", "0"],
    ["build", "free_action_planar(1)", "--samples", "20"],
    ["build", "disc_bundle_over_surface()", "--samples", "20"],
    ["build", "attach_2handle(disc_d4(1,-1))", "--samples", "20"],
    ["build", "blowup_d4(3,1)", "--samples", "20"],
    ["decompositions", "3"],
]


def test_every_subcommand_option_is_read(capsys):
    """Every option a subcommand declares is read when it runs, so none is accepted and then ignored."""
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    unread = {}
    for argv in CHEAP_INVOCATIONS:
        args = cli.build_parser().parse_args(argv, namespace=Recording())
        read.clear()
        assert args.func(args) == 0, argv
        missed = set(vars(args)) - read - {"func", "command"}
        if missed:
            unread[" ".join(argv[:2])] = sorted(missed)
    capsys.readouterr()
    assert unread == {}


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


@pytest.mark.parametrize(
    "spec",
    [
        "disc_d4(1.5,1)",
        "s1_d3(1.5,0)",
        "cotangent_t2(1.5,1)",
        "weinstein_1handle(1.5)",
        "blowup_d4(1.5,-1,0.2)",
        "free_action_planar(1.5)",
        "disc_bundle_over_surface(1.5)",
    ],
)
def test_build_refuses_non_integer_weights_and_counts(spec):
    with pytest.raises(ValueError, match="1.5"):
        registry.build(spec)


def test_type_error_inside_a_builder_still_surfaces(monkeypatch):
    def broken(m=1):
        raise TypeError(f"broken inside at m={m}")

    entry = registry.CatalogEntry("broken", broken, "raises inside")
    monkeypatch.setitem(registry.CATALOG, "broken", entry)
    with pytest.raises(TypeError, match="broken inside"):
        registry.build("broken(2)")


def test_build_accepts_keyword_arguments():
    model = registry.build("blowup_d4(1,-1,size=0.3)")
    assert model.params["size"] == pytest.approx(0.3)


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("disc_d4(0x1, -1)  # a comment", "disc_d4(1,-1)"),
        ("disc_d4((1),\n-1)", "disc_d4(1,-1)"),
        ("attach_2handle(base=s1_d3(k=1, m=0))", "attach_2handle(s1_d3(1,0),0.05,0.55)"),
    ],
)
def test_build_reads_a_spec_as_a_python_call(spec, expected):
    assert registry.build(spec).spec_string == expected
