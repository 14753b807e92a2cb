"""The benchmark's layer tracer (perfbench/tracing.py) replaces lbblab module
attributes by name.  A renamed or moved attribute would only surface in a
traced benchmark run; `snapshot()` looks every one of them up and raises
KeyError for a missing one.  Its result hooks read the assembled system and
the eigensolver result, so one traced sweep runs them too."""

import importlib.util
import json
import sys
from pathlib import Path

from lbblab import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("lbblab_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # @dataclass looks its module up here
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    return tracing


def test_tracer_finds_every_wrapped_attribute():
    snap = _tracing().snapshot()
    assert snap and all(callable(fn) for fn in snap.values())


def test_traced_sweep_runs_every_result_hook(tmp_path):
    # 4x1 P4-P3dc has 160 pressure dofs: a cap of 50 sends both points to ARPACK
    tracing = _tracing()
    cfg = {
        "kind": "sv-sweep", "width": 4, "height": 1, "grids": [[4, 1]], "b": 0.4,
        "a_start": 0.02, "a_stop": 0.03, "a_step": 0.01, "velocity_degree": 4,
        "pressure_degree": 3, "k": 3, "solver": {"dense_cap": 50},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    def argv(name):
        return ["sweep", "--config", str(path), "--out", str(tmp_path / name)]

    assert cli.main(argv("plain")) == 0
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = tracer.call("main", "cli", cli.main, argv("traced"))
    finally:
        tracer.restore()
    assert rc == 0
    assert tracing.snapshot() == before
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    for key in ("fem.nnz_A", "fem.nnz_B", "spectral.route_arpack"):
        assert metrics[key] > 0, key
