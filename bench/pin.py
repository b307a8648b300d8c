"""Regenerate reference.json: the output summary of every op on the pinned seeds.

    python3 bench/pin.py 1 97

Run it only at a commit whose outputs are known good.  run.py checks flow
extreme values against these pins within FLOW_VALUE_TOL and prints, for
information, whether each verify report's sha256 matches its pin.
"""

from __future__ import annotations

import json
import sys

from run import HERE, _require_source, run_pass


def main(seeds: list[int]) -> int:
    _require_source()
    from workloads import WORKLOADS

    pins: dict = {}
    for wl in WORKLOADS.values():
        models = wl.build()
        for seed in seeds:
            _, results = run_pass(wl.ops(models, seed))
            entry = {}
            for op, out, err, _ in results:
                if err is not None:
                    sys.exit(f"{wl.name} seed {seed} {op.label} raised:\n{err}")
                summary, problems = op.judge(out, None)
                if problems:
                    sys.exit(f"{wl.name} seed {seed} {op.label}: {problems}")
                entry[op.label] = summary
            pins.setdefault(wl.name, {})[str(seed)] = entry
            print(f"pinned {wl.name} seed {seed}", flush=True)
    (HERE / "reference.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
