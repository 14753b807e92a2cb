"""Self-tests of the benchmark's golden gate and layer trace.

    python3 -m pytest perfbench -q
"""

import json

import pytest

import gate
import run
import tracing


@pytest.fixture(scope="module")
def lbblab_imported():
    run.import_lbblab()


def _printed(verdicts: list[str]) -> str:
    """What `main` prints for these check verdicts."""
    return "".join(f"[check] {v} (detail)\n" for v in verdicts)


def _shift_sigma(csv_text: str, row: int, delta: float) -> str:
    lines = csv_text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row + 1].rstrip("\n").split(",")
    col = header.index("sigma_2")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_golden_matches_itself(workload):
    csv_text, checks = gate.load(workload)
    stdout = _printed(checks)
    attempted = len(csv_text.splitlines()) - 1
    assert gate.score((csv_text, checks), csv_text, stdout, 0) == (attempted, 0)


def test_sigma_shift_of_1e9_fails_that_point_only():
    golden = gate.load("fig3_window")
    stdout = _printed(golden[1])
    shifted = _shift_sigma(golden[0], 7, 1e-9)
    attempted, failed = gate.score(golden, shifted, stdout, 0)
    assert (attempted, failed) == (20, 1)
    assert gate.failed_rows(golden[0], shifted) == [7]
    assert gate.score(golden, _shift_sigma(golden[0], 7, 1e-11), stdout, 0) == (20, 0)


def test_exact_columns_checks_and_exit_code():
    golden_csv, checks = gate.load("beta_rect41")
    stdout = _printed(checks)
    header, row = golden_csv.splitlines()
    cells = row.split(",")
    cols = header.split(",")

    def with_cell(col, value):
        new = list(cells)
        new[cols.index(col)] = value
        return f"{header}\n{','.join(new)}\n"

    assert gate.score((golden_csv, checks), with_cell("residual_max", "1e-13"), stdout, 0) == (1, 0)
    assert gate.score((golden_csv, checks), with_cell("flagged", "1"), stdout, 0) == (1, 1)
    assert gate.score((golden_csv, checks), with_cell("config_hash", "0" * 12), stdout, 0) == (1, 1)
    assert gate.score((golden_csv, checks), "", stdout, 0) == (1, 1)
    assert gate.score((golden_csv, checks), golden_csv, stdout.replace("pass", "FAIL", 1), 0) == (1, 1)
    assert gate.score((golden_csv, checks), golden_csv, stdout, 2) == (1, 1)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layer = set(tracing.layer_metrics([_span("main", 0.0, 1.0)], {}))
    layer |= {"cli.points", "cli.points_flagged", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}


def _span(name, start, end, parent=None, layer="cli"):
    return tracing.Span(name, layer, start, end, parent, None)


def test_self_time_subtracts_only_covered_part():
    spans = [
        _span("main", 0.0, 10.0),
        _span("runner", 1.0, 9.0, parent=0),
        _span("compute_beta", 2.0, 5.0, parent=1, layer="infsup"),
        _span("element_sizes", 4.0, 7.0, parent=1, layer="geometry"),  # overlaps its sibling
        _span("splu", 8.5, 12.0, parent=1, layer="spectral"),  # runs past its parent
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 8.0 - 5.0 - 0.5, 3.0, 3.0, 3.5])


def test_layer_shares_partition_the_traced_wall():
    spans = [
        _span("main", 0.0, 10.0),
        _span("runner", 0.5, 9.5, parent=0),
        _span("sv_mesh", 1.0, 2.0, parent=1, layer="geometry"),
        _span("rect_grid", 1.0, 1.5, parent=2, layer="geometry"),
        _span("compute_beta", 2.0, 9.0, parent=1, layer="infsup"),
        _span("smallest_generalized_eigs", 3.0, 8.0, parent=4, layer="spectral"),
        _span("eigsh", 4.0, 7.0, parent=5, layer="spectral"),
    ]
    m = tracing.layer_metrics(spans, {})
    assert m["geometry.mesh_s"] == 1.0 and m["geometry.mesh_calls"] == 1
    assert m["spectral.eigs_self_s"] == pytest.approx(2.0)
    assert m["infsup.self_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["cli.output_s"] == pytest.approx(1.0)
    assert sum(m[f"share.{layer}"] for layer in tracing.LAYERS) == pytest.approx(1.0)


def test_trace_restores_attributes_and_keeps_bytes(lbblab_imported, tmp_path):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    before = tracing.snapshot()
    assert run.call_main("warmup_sv", plain, seed=3)[0] == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.snapshot() != before
        rc, _ = run.call_main("warmup_sv", traced, seed=3, tracer=tracer)
    finally:
        tracer.restore()
    assert rc == 0
    assert tracing.snapshot() == before
    assert run.outputs(plain, "warmup_sv") == run.outputs(traced, "warmup_sv")
    m = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert m["spectral.route_dense"] == 1 and m["spectral.route_arpack"] == 1
    assert m["spectral.opinv_applies"] > 0 and m["spectral.splu_calls"] == 2
    assert m["infsup.compute_beta_calls"] == 2
    assert {s.point for s in tracer.spans if s.layer == "fem"} == {1, 2}


def test_failing_call_closes_its_span_and_restores(lbblab_imported):
    import numpy as np

    import lbblab.infsup

    before = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            tracer.call("main", "cli", lbblab.infsup.factorize_spd, np.ones((2, 3)))
    finally:
        tracer.restore()
    assert tracing.snapshot() == before
    assert [s.name for s in tracer.spans] == ["main", "factorize_spd"]
    assert all(s.end >= s.start > 0 for s in tracer.spans)
    assert tracer.spans[1].parent == 0
