"""hamflow benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload verify_zoo --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and README.md): verify_zoo, flow_extrema and
zero_locus.  A pass runs every operation of the workload once, one after
another in this single process.

With ``--trace 0`` the run measures, with tracing off:
  setup_s      median, over fresh processes, of importing hamflow and
               building the workload's models (setup_probe.py)
  wall_s       median time of one pass; passes repeat while another one
               still fits in ``--seconds`` (at least one runs)
  peak_rss_mb  peak resident set of this process
Both times are in the speed-normalised seconds of speedclock.py, which
take out the drifting speed of a shared machine; raw pass times are
printed too.

With ``--trace 1`` it runs one untraced pass, then installs the tracer
(tracer.py), builds the models again and runs one traced pass, and reports
the per-layer metrics of the traced part, including the tracing overhead
(traced minus untraced pass time, speed-normalised).  Spans are written to
``bench/out/trace-<workload>.npz``.

Every operation's output is checked against its pinned values; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before NumPy is first imported; the setup
# probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speedclock import SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
TRACE_SUM_RTOL = 1e-9


def _require_source() -> None:
    if not (SRC / "hamflow" / "__init__.py").is_file():
        sys.exit(f"bench: no hamflow source under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(workload: str) -> float:
    """Median setup time over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_pass(ops, tracer=None) -> tuple[float, list]:
    """Run every op once; return the pass time and (op, output, error, seconds) tuples."""
    results = []
    t0 = perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = k
        t = perf_counter()
        try:
            out, err = op.run(), None
        except Exception:
            out, err = None, traceback.format_exc()
        results.append((op, out, err, perf_counter() - t))
    return perf_counter() - t0, results


def judge(results, reference: dict) -> tuple[int, list[str]]:
    """Check every output; return the failure count and report lines."""
    failed = 0
    lines = []
    for op, out, err, seconds in results:
        lines.append(f"op {op.label} {seconds:.4f} s")
        if err is not None:
            failed += 1
            lines.append(f"FAIL {op.label}: raised\n{err}")
            continue
        ref = reference.get(op.label)
        try:
            summary, problems = op.judge(out, ref)
        except Exception:
            summary, problems = {}, [f"output could not be checked\n{traceback.format_exc()}"]
        if problems:
            failed += 1
            lines.append(f"FAIL {op.label}: {'; '.join(problems)}")
        if "sha256" in summary:
            pinned = "no pin for this seed" if ref is None else (
                "matches pin" if ref.get("sha256") == summary["sha256"] else "differs from pin"
            )
            lines.append(f"sha256 {op.label} {summary['sha256']} ({pinned})")
    return failed, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _require_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env = environment()
    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    reference = json.loads((HERE / "reference.json").read_text())
    reference = reference.get(wl.name, {}).get(str(args.seed), {})

    setup_s = None if args.trace else measure_setup(wl.name)
    ops = wl.ops(wl.build(), args.seed)

    pass_times = []
    raw_times = []
    all_results = []
    with SpeedClock() as clock:
        t_start = perf_counter()
        while True:
            t0 = perf_counter()
            elapsed, results = run_pass(ops)
            raw_times.append(elapsed)
            pass_times.append(clock.normalized(t0, t0 + elapsed))
            all_results += results
            if args.trace or perf_counter() - t_start + elapsed > args.seconds:
                break

        if args.trace:
            import tracer as tr

            tracer = tr.Tracer()
            tr.install(tracer)
            with tracer.span("workload"):
                tracer.op_id = len(ops)
                traced_ops = wl.ops(wl.build(), args.seed)
                t0 = perf_counter()
                traced_raw, results = run_pass(traced_ops, tracer)
            traced_s = clock.normalized(t0, t0 + traced_raw)
            all_results += results

    if args.trace:
        # probe time is cut out of every span it fell in
        probes = (clock.starts, clock.durations)
        layer = tr.layer_metrics(tracer, probes)
        layer["trace.overhead_s"] = (traced_s - pass_times[0], "s")
        _, dur, self_s = tracer.self_times(probes)
        root_s = float(dur[0])
        print(f"# traced pass {traced_s:.4f} s, untraced {pass_times[0]:.4f} s (speed-normalised), {len(dur)} spans")
        print(f"# span self times sum to {float(self_s.sum()):.6f} s, root span {root_s:.6f} s")
        sum_ok = abs(float(self_s.sum()) - root_s) <= TRACE_SUM_RTOL * root_s
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{wl.name}.npz", [op.label for op in ops] + ["setup"], probes)

    failed, lines = judge(all_results, reference)
    for line in lines:
        print(line)
    attempted = len(all_results)
    print(f"# error_ratio {failed / attempted:.6g} ratio ({failed} failed of {attempted} ops)")

    if args.trace:
        correct = failed == 0 and sum_ok
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(layer.items())}
    else:
        correct = failed == 0
        wall_s = statistics.median(pass_times)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"# passes {len(pass_times)}, speed-normalised: " + " ".join(f"{t:.4f}" for t in pass_times))
        print(f"# passes {len(pass_times)}, raw wall time: " + " ".join(f"{t:.4f}" for t in raw_times))
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
