"""Command-line front end: catalog listing, verification, model descriptions, flows, orbits.

Exit codes follow one contract everywhere: 0 means every requested check
passed, 1 means a numerical check or integration failed, 2 means the request
itself was bad (unknown model, malformed arguments, builder preconditions,
an output path that cannot be written).
A reader that closes the output pipe early (``hamflow list | head -1``)
leaves the status as it is.
All randomness descends from --seed through the documented per-check
splitting rule, so repeated runs emit byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys

import numpy as np

from . import critical, flow, jets, registry, verifier
from .errors import HamflowError, ImmediateExit, StiffFlow
from .model import HamiltonianModel, enumerate_decompositions


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader has gone: keep the exit flush from failing again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _render(args, lines, payload, header, rows) -> None:
    if args.format == "json":
        _emit(args, verifier.canonical_json(payload))
    elif args.format == "csv":
        _emit(args, _csv_text(header, rows))
    else:
        _emit(args, "\n".join(lines))


def _tolerances(items):
    """``--tol`` overrides in order: CHECK=VALUE sets one check, a bare VALUE all of them."""
    tols = {}
    for item in items:
        name, eq, raw = item.partition("=")
        if eq:
            tols[name.strip()] = float(raw)
        else:
            tols = dict.fromkeys(verifier.CHECK_IDS, float(item))
    return tols


def _seed(text: str) -> int:
    """The type of the ``--seed`` options: a non-negative integer, or the parser refuses it."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _run_config(args) -> verifier.RunConfig:
    return verifier.RunConfig(
        seed=args.seed, samples=args.samples, tolerances=_tolerances(args.tol)
    )


def _report_rows(rep):
    rows = []
    for entry in rep.to_dict()["checks"]:
        if "skipped" in entry:
            status = "skipped"
        else:
            status = "passed" if entry["passed"] else "failed"
        rows.append((entry["id"], f"{entry['max_residual']:.6e}", status, entry.get("note", "")))
    rows.append(("overall", "", "passed" if rep.overall else "failed", ""))
    return rows


def _verified_report(model: HamiltonianModel, config: verifier.RunConfig):
    rep = verifier.run_all(model, config)
    return dataclasses.replace(rep, critical=critical.critical_surface_census(model, seed=config.seed))


# ----------------------------------------------------------------------
# subcommands


def cmd_list(args) -> int:
    catalog = [
        {"name": e.name, "signature": e.usage, "summary": e.summary}
        for e in registry.CATALOG.values()
    ]
    zoo = list(registry.ZOO)
    lines = ["catalog:"]
    lines += [f"  {e['signature']:40s} {e['summary']}" for e in catalog]
    lines.append("standard examples:")
    lines += [f"  {spec}" for spec in zoo]
    rows = [(spec, registry.CATALOG[spec.split("(", 1)[0]].summary) for spec in zoo]
    payload = {"catalog": catalog, "zoo": zoo}
    _render(args, lines, payload, ("spec", "summary"), rows)
    return 0


def cmd_verify(args) -> int:
    model = registry.build(args.model)
    rep = _verified_report(model, _run_config(args))
    _render(args, rep.lines(), rep.to_dict(), ("check", "max_residual", "status", "note"), _report_rows(rep))
    return 0 if rep.overall else 1


def _start(args) -> tuple[HamiltonianModel, np.ndarray]:
    """The model of ``args.model`` and ``--start`` wrapped into chart ``--chart``, whose domain must hold it."""
    model = registry.build(args.model)
    if not 0 <= args.chart < len(model.charts):
        raise ValueError(f"chart index {args.chart} out of range for {model.name}")
    chart = model.charts[args.chart].chart
    start = np.array([float(tok) for tok in args.start.split(",")], dtype=float)
    if start.shape[0] != chart.dim:
        raise ValueError(f"start has {start.shape[0]} coordinates, chart {chart.name!r} has {chart.dim}")
    start = chart.wrap(start)
    if not bool(chart.contains(start[None], slack=1e-9)[0]):
        raise ValueError(f"start lies outside the domain of chart {chart.name!r}")
    return model, start


def cmd_flow(args) -> int:
    model, start = _start(args)
    direction = 1 if args.direction == "up" else -1
    try:
        res = flow.integrate(model, args.chart, start, direction=direction, max_time=args.max_time)
    except ImmediateExit as exc:
        payload = {"termination": "immediate_exit", "note": str(exc)}
        _render(
            args,
            [f"immediate exit: {exc}"],
            payload,
            ("field", "value"),
            sorted(payload.items()),
        )
        return 0
    except StiffFlow as exc:
        print(f"error: StiffFlow: {exc}", file=sys.stderr)
        return 1

    h0 = float(res.h_values[0])
    h1 = float(res.h_values[-1])
    payload = {
        "termination": res.termination,
        "direction": res.direction,
        "steps": int(len(res.times)),
        "t_final": float(res.times[-1]),
        "h_start": h0,
        "h_end": h1,
        "monotone": bool(res.monotone),
        "end_chart": int(res.end_chart),
        "end_point": [float(v) for v in res.end_point],
    }
    if args.trajectory:
        header = ["t", "chart"] + [f"x{j}" for j in range(res.points.shape[1])] + ["H"]
        rows = (
            [f"{t:.12g}", ci] + [f"{v:.12g}" for v in p] + [f"{h:.12g}"]
            for t, ci, p, h in zip(res.times, res.chart_indices, res.points, res.h_values)
        )
        with open(args.trajectory, "w", encoding="utf-8") as fh:
            fh.write(_csv_text(header, rows) + "\n")
    lines = [
        f"termination: {res.termination} after {len(res.times)} points, t={res.times[-1]:.6g}",
        f"H: {h0:.6g} -> {h1:.6g} ({'monotone' if res.monotone else 'not monotone'})",
        f"end point (chart {res.end_chart}): {np.array2string(res.end_point, precision=6)}",
    ]
    _render(args, lines, payload, ("field", "value"), sorted((k, str(v)) for k, v in payload.items()))
    return 0


def cmd_orbit(args) -> int:
    model, start = _start(args)
    oc = flow.classify_orbit(model, args.chart, start)
    payload = {
        "kind": oc.kind,
        "detail": oc.detail,
        "up_termination": None if oc.upward is None else oc.upward.termination,
        "down_termination": None if oc.downward is None else oc.downward.termination,
    }
    lines = [f"orbit kind: {oc.kind}" + (f" ({oc.detail})" if oc.detail else "")]
    _render(args, lines, payload, ("field", "value"), sorted(payload.items()))
    return 0


def cmd_legendrian(args) -> int:
    model = registry.build(args.model)
    found = flow.detect_legendrian_set(model, seed=args.seed)
    components = []
    for comp in found.components:
        cd = model.charts[comp.chart_index]
        h_res = abs(jets.value_at(cd.hamiltonian, comp.representative))
        components.append(
            {
                "chart_index": comp.chart_index,
                "representative": [float(v) for v in comp.representative],
                "H_residual": h_res,
                "stabilizer": flow.stabilizer_of(model, comp.chart_index, comp.representative),
            }
        )
    payload = {"count": len(components), "components": components}
    lines = [f"{len(components)} Legendrian orbit component(s)"]
    rows = []
    for i, comp in enumerate(components):
        lines.append(
            f"  [{i}] chart {comp['chart_index']}, stabilizer {comp['stabilizer']}, "
            f"|H| = {comp['H_residual']:.3e}, at {comp['representative']}"
        )
        rows.append(
            (
                i,
                comp["chart_index"],
                comp["stabilizer"],
                f"{comp['H_residual']:.6e}",
                " ".join(f"{v:.9g}" for v in comp["representative"]),
            )
        )
    _render(args, lines, payload, ("component", "chart", "stabilizer", "H_residual", "representative"), rows)
    return 0


def cmd_build(args) -> int:
    model = registry.build(args.model)
    rep = _verified_report(model, _run_config(args))
    descriptor = {
        "name": model.name,
        "params": model.params,
        "charts": [cd.chart.name for cd in model.charts],
        "meta": model.meta,
    }
    payload = {"model": descriptor, "report": rep.to_dict()}
    lines = [f"built {model.name} with charts {', '.join(descriptor['charts'])}"]
    weight = model.meta.get("sphere_weight")
    if weight is not None:
        if weight == 0:
            lines.append("exceptional sphere: fixed pointwise")
        else:
            lines.append(f"exceptional sphere: orbit stabilizer order {weight}")
    lines += rep.lines()
    _render(args, lines, payload, ("check", "max_residual", "status", "note"), _report_rows(rep))
    return 0 if rep.overall else 1


def cmd_decompositions(args) -> int:
    decs = enumerate_decompositions(args.genus)
    lines = [f"(h={d.h},k={d.k})" for d in decs]
    payload = [{"h": d.h, "k": d.k} for d in decs]
    _render(args, lines, payload, ("h", "k"), [(d.h, d.k) for d in decs])
    return 0


# ----------------------------------------------------------------------
# parser


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", metavar="PATH", default=None, help="write the report here instead of stdout")


def _add_checks(p: argparse.ArgumentParser) -> None:
    """The settings of :class:`verifier.RunConfig`, for the commands that verify a model."""
    p.add_argument("--seed", type=_seed, default=0, help="master seed for all sampling")
    p.add_argument("--samples", type=int, default=500, help="sample count per check")
    p.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="[CHECK=]VALUE",
        help="override one check tolerance (repeatable) or all of them at once",
    )


def _add_start(p: argparse.ArgumentParser) -> None:
    """The model and start point, for the commands that follow the flow from one point."""
    p.add_argument("model")
    p.add_argument("--start", required=True, metavar="X,Y,...", help="comma-separated start coordinates")
    p.add_argument("--chart", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamflow",
        description="Verification and flow experiments for rotation-invariant Hamiltonian blocks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="show the model catalog and the standard example list")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("verify", help="run the full identity suite on one model")
    p.add_argument("model", help='model spec, e.g. "disc_d4(1,-1)"')
    _add_checks(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("build", help="build one model, describe it and run the identity suite")
    p.add_argument("model", help='model spec, e.g. "blowup_d4(3,1,0.1)"')
    _add_checks(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("flow", help="integrate one moment-gradient trajectory")
    _add_start(p)
    p.add_argument("--direction", choices=("up", "down"), default="up")
    p.add_argument("--max-time", type=float, default=60.0)
    p.add_argument("--trajectory", metavar="PATH", default=None, help="also write the sampled path as CSV")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("orbit", help="classify the invariant surface through one start point")
    _add_start(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("legendrian", help="locate zero-level boundary orbit components")
    p.add_argument("model")
    p.add_argument("--seed", type=_seed, default=0, help="seed for the 600 boundary samples per chart")
    p.set_defaults(func=cmd_legendrian)

    p = sub.add_parser("decompositions", help="list the (h, k) splittings for a genus")
    p.add_argument("genus", type=int)
    p.set_defaults(func=cmd_decompositions)

    for p in sub.choices.values():
        _add_output(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HamflowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message; an OSError is an
        # --output or --trajectory path that cannot be written
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
