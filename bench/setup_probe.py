"""Print the time to import hamflow and build one workload's models, in the
speed-normalised seconds of speedclock.py.

    python3 bench/setup_probe.py verify_zoo

Run in a fresh process by run.py, which takes the median over several.
The builders run their own self-checks during this step.
"""

import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
from speedclock import SpeedClock  # noqa: E402  (imports NumPy)

with SpeedClock() as clock:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS  # noqa: E402  (imports hamflow)

    WORKLOADS[sys.argv[1]].build()
    t1 = perf_counter()
print(clock.normalized(t0, t1))
