"""The benchmark's layer tracer (perfbench/tracing.py) replaces lbblab module
attributes by name.  A renamed or moved attribute would only surface in a
traced benchmark run; `snapshot()` looks every one of them up and raises
KeyError for a missing one."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_wrapped_attribute():
    spec = importlib.util.spec_from_file_location("lbblab_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # @dataclass looks its module up here
    try:
        spec.loader.exec_module(tracing)
        snap = tracing.snapshot()
    finally:
        del sys.modules[spec.name]
    assert snap and all(callable(fn) for fn in snap.values())
