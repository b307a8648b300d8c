"""Every function the benchmark tracer wraps still exists under its name.

``bench/tracer.py`` rebinds each ``(owner, attribute)`` that ``_targets``
lists, and a renamed or deleted one makes a traced benchmark run crash.
The tracer is loaded from its file and left unchanged.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    targets = _load_tracer()._targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets if attr not in vars(owner)]
    assert missing == []
