import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lbblab.cli import (
    _doubling_ratios,
    _pair,
    _safe_beta,
    _solver_options,
    main,
    plot_perturb_rate,
    plot_polygon_limit,
    plot_sv_sweep,
    plot_sv_sweep_diff_fine,
    run_p_sweep,
    run_perturb_rate,
    run_polygon_limit,
    run_sv_sweep,
    sv_mesh,
)
from lbblab.fem import assemble_system, build_dof_map
from lbblab.geometry import regular_polygon_mesh, save_mesh
from lbblab.spectral import (
    EigenSolverError,
    SchurOperator,
    SolverOptions,
    factorize_spd,
    smallest_generalized_eigs,
)

ROOT = Path(__file__).resolve().parents[1]

SV_CFG = {
    "kind": "sv-sweep",
    "width": 4,
    "height": 1,
    "grids": [[4, 1]],
    "b": 0.4,
    "a_start": -0.1,
    "a_stop": 0.4,
    "a_step": 0.1,
    "velocity_degree": 4,
    "pressure_degree": 3,
    "k": 3,
    "beta_ref": 0.218444,
    "slack": 0.005,
    "slope_window": [0.02, 0.10],
}


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_sv_sweep_deterministic_and_checked():
    out1 = run_sv_sweep(SV_CFG)
    out2 = run_sv_sweep(SV_CFG)
    assert out1.csv == out2.csv
    assert out1.svgs[""] == out2.svgs[""]
    rows = _rows(out1.csv)
    assert len(rows) == 6
    a0 = [r for r in rows if abs(float(r["a"])) < 1e-12]
    assert len(a0) == 1 and float(a0[0]["beta"]) <= 1e-6
    names = {c.name: c.passed for c in out1.checks}
    assert names["usc-all-rows"]
    assert names["singular-point"]
    assert all(r["flagged"] == "0" for r in rows)


# the 8x2 points (640 pressure dofs) take the budgeted ARPACK route
SV_TWO_GRIDS = dict(SV_CFG, grids=[[4, 1], [8, 2]])


@pytest.fixture(scope="module")
def sv_two_grids_serial():
    return run_sv_sweep(SV_TWO_GRIDS, jobs=1)


def test_sv_sweep_parallel_matches_serial(sv_two_grids_serial):
    # Lanczos runs inside the worker threads, and scipy's ARPACK takes no lock
    parallel = run_sv_sweep(SV_TWO_GRIDS, jobs=2)
    assert sv_two_grids_serial.csv == parallel.csv


def test_diff_fine_plot_ignores_roundoff_betas_at_singular_point(sv_two_grids_serial):
    rows = _rows(sv_two_grids_serial.csv)
    svg = sv_two_grids_serial.svgs["diff_fine"]
    assert plot_sv_sweep_diff_fine(rows, 1e-6) == svg
    zero = [r for r in rows if float(r["a"]) == 0.0]
    assert [r["mesh"] for r in zero] == ["4x1", "8x2"]
    assert all(float(r["beta"]) <= 1e-6 for r in zero)
    # other roundoff betas, finest above coarse so that their ratio is plottable
    for r, beta in zip(zero, (1.2e-15, 2.7e-15)):
        r["beta"] = repr(beta)
    assert plot_sv_sweep_diff_fine(rows, 1e-6) == svg


def test_svg_regenerates_from_csv_alone():
    out = run_sv_sweep(SV_CFG)
    again = plot_sv_sweep(_rows(out.csv))
    assert again == out.svgs[""]


def test_p_sweep_runner():
    cfg = {
        "kind": "p-sweep",
        "width": 2,
        "height": 1,
        "grids": [[1, 1]],
        "n_values": [2, 4, 6],
        "k_rule": {"type": "half"},
        "k": 2,
        "beta_ref": 0.387262,
        "converge_tol": 0.02,
        "check_usc": True,
    }
    out = run_p_sweep(cfg)
    rows = _rows(out.csv)
    assert [int(r["n"]) for r in rows] == [2, 4, 6]
    assert [int(r["pressure_degree"]) for r in rows] == [1, 2, 3]
    by_name = {c.name: c for c in out.checks}
    assert by_name["p-convergence"].passed
    # n=4 on the single element legitimately overshoots the reference
    assert not by_name["usc-all-rows"].passed


def test_p_sweep_parallel_matches_serial():
    # high-order points run large BLAS products inside the worker threads
    cfg = {
        "kind": "p-sweep",
        "width": 2,
        "height": 1,
        "grids": [[2, 2]],
        "n_values": [6, 8],
        "k_rules": [{"type": "offset", "d": 1}, {"type": "half"}],
        "k": 3,
        "beta_ref": 0.387262,
    }
    serial = run_p_sweep(cfg, jobs=1)
    parallel = run_p_sweep(cfg, jobs=2)
    assert len(_rows(serial.csv)) == 4
    assert serial.csv == parallel.csv


def test_perturb_runner_and_plot():
    cfg = {"kind": "perturb-rate", "n_values": [8, 16, 32], "grid_density": 128}
    out = run_perturb_rate(cfg)
    rows = _rows(out.csv)
    assert len(rows) == 3
    assert all(r["jacobian_bound_ok"] == "1" for r in rows)
    assert {c.name: c.passed for c in out.checks}["eps-halving"]
    assert plot_perturb_rate(rows) == out.svgs[""]


def test_polygon_runner_reports_sv_degeneration():
    cfg = {
        "kind": "polygon-limit",
        "n_values": [8, 16],
        "refine": 0,
        "velocity_degree": 4,
        "pressure_degree": 3,
        "k": 2,
        "eps_grid": 128,
    }
    out = run_polygon_limit(cfg)
    rows = _rows(out.csv)
    named = {c.name: c for c in out.checks}
    # the upper bound holds but corner near-singularity breaks the lower one
    assert all(float(r["beta"]) <= 1 / math.sqrt(2) + 0.005 for r in rows)
    assert not named["two-sided-bounds"].passed
    assert named["eps-contraction"].passed
    assert plot_polygon_limit(rows) == out.svgs[""]


@pytest.mark.parametrize("first", ["nan", "-0.01"])
def test_doubling_ratio_without_a_lower_value_fails(first):
    # a failed polygon point (NaN) or a beta above the disk value (negative
    # gap) leaves its pair without a ratio, which must fail the check
    gaps = (first, "0.1", "0.05", "0.025")
    rows = [{"n": str(n), "gap": g} for n, g in zip((8, 16, 32, 64), gaps)]
    check = _doubling_ratios("gap-contraction", rows, "gap", [0.3, 0.7])
    assert not check.passed
    assert check.detail == "ratios nan, 0.500, 0.500"


def test_main_end_to_end(tmp_path):
    cfg = dict(SV_CFG)
    cfg["a_start"], cfg["a_stop"] = 0.2, 0.4
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    prefix = str(tmp_path / "run")
    rc = main(["sweep", "--config", str(cfg_path), "--out", prefix, "--check"])
    assert rc == 0
    assert (tmp_path / "run.csv").exists()
    assert (tmp_path / "run.svg").exists()
    assert (tmp_path / "run_slopes.csv").exists()
    assert (tmp_path / "run_diff_fine.svg").exists()

    # rerun is byte-identical
    text1 = (tmp_path / "run.csv").read_bytes()
    rc = main(["sweep", "--config", str(cfg_path), "--out", prefix])
    assert rc == 0
    assert (tmp_path / "run.csv").read_bytes() == text1


def test_main_exit_codes(tmp_path):
    # failed check under --check -> 2
    cfg = dict(SV_CFG)
    cfg["a_start"], cfg["a_stop"] = 0.3, 0.4
    cfg["beta_ref"], cfg["slack"] = 0.01, 0.001
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x"), "--check"]) == 2
    # without --check the failure is reported but exit stays 0
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x")]) == 0
    # wrong subcommand for the kind -> 1
    assert main(["polygon", "--config", str(p), "--out", str(tmp_path / "y")]) == 1
    # unreadable config -> 1
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 1


# In a fresh interpreter: main pins glibc's thresholds, so a block below a
# just-freed mapped block still gets its own mapping instead of the heap.
_MALLOC_PROBE = """
import ctypes, json, sys
import numpy as np
from lbblab.cli import main

libc = ctypes.CDLL(None)
if not hasattr(libc, "mallinfo2"):
    print(json.dumps(None))
    sys.exit(0)
fields = "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost"
MallInfo2 = type("MallInfo2", (ctypes.Structure,),
                 {"_fields_": [(f, ctypes.c_size_t) for f in fields.split()]})
libc.mallinfo2.restype = MallInfo2
main(["sweep", "--config", sys.argv[1]])
big = np.ones((24 << 20) // 8)
del big  # without the pin, glibc's mmap threshold rises to 24 MiB here
mapped_before = libc.mallinfo2().hblkhd
block = np.ones((10 << 20) // 8)
print(json.dumps(libc.mallinfo2().hblkhd - mapped_before))
"""


def test_main_pins_malloc_thresholds(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _MALLOC_PROBE, str(tmp_path / "missing.json")],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    mapped = json.loads(proc.stdout.splitlines()[-1])
    if mapped is None:
        pytest.skip("C library without mallinfo2")
    assert mapped >= 10 << 20


def test_single_beta_from_mesh_file(tmp_path):
    mesh_path = tmp_path / "hex.mesh"
    save_mesh(regular_polygon_mesh(6, 1), mesh_path)
    cfg = {
        "kind": "single-beta",
        "domain": {"type": "mesh-file", "path": str(mesh_path)},
        "elements": {"velocity_degree": 2, "pressure_degree": 0},
        "k": 2,
        "eigenfunction_out": str(tmp_path / "eig.csv"),
        "mesh_out": str(tmp_path / "emitted.mesh"),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["beta", "--config", str(p), "--out", str(tmp_path / "beta"), "--seed", "3"])
    assert rc == 0
    rows = _rows((tmp_path / "beta.csv").read_text())
    assert len(rows) == 1
    assert 0.0 < float(rows[0]["beta"]) <= 1.0
    assert (tmp_path / "eig.csv").exists()
    # the CLI emits the same mesh format it accepts
    assert (tmp_path / "emitted.mesh").read_text() == mesh_path.read_text()


def test_spectrum_runner(tmp_path):
    cfg = {
        "kind": "spectrum",
        "domain": {"type": "rectangle", "width": 1, "height": 1},
        "mesh": {"nx": 2, "ny": 2, "b": 0.4, "a": 0.4, "split": True},
        "elements": {"velocity_degree": 4, "pressure_degree": 3},
        "k": 6,
        "corner_angles": [math.pi / 2],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["spectrum", "--config", str(p), "--out", str(tmp_path / "spec")])
    assert rc == 0
    rows = _rows((tmp_path / "spec.csv").read_text())
    assert len(rows) == 6
    assert (tmp_path / "spec_intervals.csv").exists()
    sig = [float(r["sigma"]) for r in rows]
    assert sig == sorted(sig)


def test_h_refinement_runner(tmp_path):
    cfg = {
        "kind": "h-refinement",
        "width": 2,
        "height": 1,
        "family": "quad",
        "velocity_degree": 2,
        "pressure_degree": 1,
        "pressure_grids": [[2, 1], [4, 2]],
        "refine_velocity": {"mode": "fixed", "r": 1},
        "k": 2,
        "beta_ref": 0.387262,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["sweep", "--config", str(p), "--out", str(tmp_path / "h")])
    assert rc == 0
    rows = _rows((tmp_path / "h.csv").read_text())
    assert len(rows) == 2
    for r in rows:
        assert float(r["ratio"]) == pytest.approx(
            float(r["h_velocity"]) / float(r["h_pressure"]), rel=1e-12
        )
        assert float(r["beta"]) > 0


def test_p_sweep_sqrt_rule():
    from lbblab.cli import _pressure_degree, _rule_label

    assert _pressure_degree({"type": "sqrt", "coefficient": 1.0}, 9) == 3
    assert _pressure_degree({"type": "sqrt", "coefficient": 0.5}, 16) == 2
    assert _pressure_degree({"type": "offset", "d": 3}, 2) is None
    assert _rule_label({"type": "half"}) == "k=ceil(n/2)"
    cfg = {
        "kind": "p-sweep",
        "width": 2, "height": 1,
        "grids": [[1, 1]],
        "n_values": [4, 9],
        "k_rule": {"type": "sqrt", "coefficient": 1.0},
        "k": 2,
    }
    out = run_p_sweep(cfg)
    rows = _rows(out.csv)
    assert [int(r["pressure_degree"]) for r in rows] == [2, 3]


def test_residual_failures_are_flagged_not_silent():
    cfg = dict(SV_CFG)
    cfg["a_start"], cfg["a_stop"] = 0.3, 0.4
    cfg["solver"] = {"residual_tol": 1e-30}  # unattainable: every solve fails
    out = run_sv_sweep(cfg)
    rows = _rows(out.csv)
    assert rows, "rows must still be emitted deterministically"
    for r in rows:
        assert r["flagged"] == "1"
        assert r["beta"] == "nan"


def test_p_sweep_empty_deflated_pressure_is_flagged(tmp_path, capsys):
    # one Q0dc pressure on one element leaves nothing after deflation
    cfg = {
        "kind": "p-sweep",
        "width": 1, "height": 1,
        "grids": [[1, 1]],
        "n_values": [2],
        "k_rule": {"type": "fixed", "k": 0},
        "k": 2,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "p")]) == 0
    rows = _rows((tmp_path / "p.csv").read_text())
    assert len(rows) == 1
    assert rows[0]["flagged"] == "1"
    assert rows[0]["beta"] == "nan"
    err = capsys.readouterr().err
    assert "warning: sweep point failed: DimensionZeroError" in err
    assert "zero-dimensional" in err


def test_arpack_non_convergence_is_a_failed_point(capsys):
    # one Lanczos restart cannot converge six pairs on the ARPACK route
    pc = _pair(sv_mesh(4, 1, 12, 3, 0.4, 0.0), 3, 2, SolverOptions(dense_cap=1, max_iterations=1))
    system = assemble_system(
        build_dof_map(pc.velocity_mesh, pc.velocity_space),
        build_dof_map(pc.velocity_mesh, pc.pressure_space),
    )
    op = SchurOperator(system.B, factorize_spd(system.A))
    with pytest.raises(EigenSolverError, match="arpack route"):
        smallest_generalized_eigs(op, system.Mp, 6, deflate=system.m, options=pc.solver)
    assert _safe_beta(pc, 6) is None
    assert "warning: sweep point failed: EigenSolverError: arpack route" in capsys.readouterr().err


def test_solver_defaults_match_library():
    assert _solver_options({}, None) == SolverOptions()
    assert _solver_options({"solver": {"seed": 3}}, 5) == SolverOptions(seed=5)
    with pytest.raises(TypeError):
        _solver_options({"solver": {"symmetry_tol": 1e-10}})


@pytest.mark.parametrize(
    "path",
    sorted(ROOT.glob("configs/*.json")) + sorted(ROOT.glob("perfbench/workloads/*.json")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_config_solver_blocks_build(path):
    cfg = json.loads(path.read_text())
    assert isinstance(_solver_options(cfg), SolverOptions)
