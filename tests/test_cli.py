import csv
import io
import json
import math
from pathlib import Path

import pytest

from lbblab.cli import (
    _pair,
    _safe_beta,
    _solver_options,
    main,
    plot_perturb_rate,
    plot_polygon_limit,
    plot_sv_sweep,
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


def test_sv_sweep_parallel_matches_serial():
    serial = run_sv_sweep(SV_CFG, jobs=1)
    parallel = run_sv_sweep(SV_CFG, jobs=4)
    assert serial.csv == parallel.csv


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
