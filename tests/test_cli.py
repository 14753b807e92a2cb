import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lbblab import spectral
from lbblab.cli import (
    _betas,
    _degree_rule,
    _doubling_ratios,
    _eigenfunction_csv,
    _pair,
    _solver_options,
    _usc,
    main,
    plot_h_refinement,
    plot_p_sweep,
    plot_perturb_rate,
    plot_polygon_limit,
    plot_spectrum,
    plot_sv_sweep,
    plot_sv_sweep_diff_fine,
    plot_sv_sweep_diff_ref,
    run_h_refinement,
    run_p_sweep,
    run_perturb_rate,
    run_polygon_limit,
    run_sv_sweep,
    sv_mesh,
)
from lbblab.fem import assemble_system, build_dof_map
from lbblab.geometry import MeshError, regular_polygon_mesh, save_mesh
from lbblab.spectral import (
    EigenSolverError,
    SchurOperator,
    SolverOptions,
    factorize_spd,
    smallest_generalized_eigs,
)
from lbblab.svgplot import line_plot

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


@pytest.mark.parametrize("betas", [["0.1", "nan"], ["nan", "0.1"]], ids=["nan-last", "nan-first"])
def test_usc_check_fails_on_a_nan_beta(betas):
    rows = [{"beta": beta, "flagged": "0"} for beta in betas]
    check = _usc(rows, {"beta_ref": 0.2})
    assert not check.passed
    assert check.detail == "max beta=nan <= 0.2 + 0.005"


@pytest.mark.parametrize("nan_grid", [(4, 1), (8, 2)], ids=["nan-first", "nan-last"])
def test_singular_point_check_fails_on_a_nan_beta(nan_grid, monkeypatch):
    # an unflagged NaN beta at a = 0 fails the check wherever its grid sits
    from lbblab import cli

    real = cli.compute_betas

    def compute_betas(configs, k, failures):
        results = real(configs, k, failures)
        mesh = configs[0].velocity_mesh
        if len(mesh.elements) == 4 * nan_grid[0] * nan_grid[1]:
            results = [dataclasses.replace(res, beta=math.nan) for res in results]
        return results

    monkeypatch.setattr(cli, "compute_betas", compute_betas)
    cfg = dict(SV_CFG, grids=[[4, 1], [8, 2]], a_start=0.0, a_stop=0.0, beta_ref=None)
    out = run_sv_sweep(cfg)
    assert [r["beta"] for r in _rows(out.csv)].count("nan") == 1
    (check,) = [c for c in out.checks if c.name == "singular-point"]
    assert not check.passed
    assert check.detail == "beta(a=0) max=nan <= 1e-06"


def test_p_sweep_runner():
    cfg = {
        "kind": "p-sweep",
        "width": 2,
        "height": 1,
        "grids": [[1, 1]],
        "n_values": [2, 4, 6],
        "k_rules": [{"type": "half"}],
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


def test_failed_point_fails_p_convergence(monkeypatch):
    # the n = 6 point fails: its NaN beta is the final error, not n = 4's
    from lbblab import cli

    real = cli.compute_betas

    def compute_betas(configs, k, failures):
        return [EigenSolverError("injected") if c.velocity_space.degree == 6
                else real([c], k, failures)[0] for c in configs]

    monkeypatch.setattr(cli, "compute_betas", compute_betas)
    cfg = {
        "kind": "p-sweep",
        "width": 2,
        "height": 1,
        "grids": [[1, 1]],
        "n_values": [2, 4, 6],
        "k_rules": [{"type": "half"}],
        "k": 2,
        "beta_ref": 0.387262,
        "converge_tol": 0.02,
    }
    out = run_p_sweep(cfg)
    assert [r["flagged"] for r in _rows(out.csv)] == ["0", "0", "1"]
    (check,) = out.checks
    assert check.line() == "[check] p-convergence: FAIL (('1x1', 'k=ceil(n/2)'): final err nan)"


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


POLYGON_CFG = {
    "kind": "polygon-limit",
    "n_values": [8, 16],
    "refine": 0,
    "velocity_degree": 4,
    "pressure_degree": 3,
    "k": 2,
    "eps_grid": 128,
}


@pytest.fixture(scope="module")
def polygon_serial():
    return run_polygon_limit(POLYGON_CFG, jobs=1)


def test_polygon_runner_reports_sv_degeneration(polygon_serial):
    out = polygon_serial
    rows = _rows(out.csv)
    named = {c.name: c for c in out.checks}
    # the upper bound holds but corner near-singularity breaks the lower one
    assert all(float(r["beta"]) <= 1 / math.sqrt(2) + 0.005 for r in rows)
    assert not named["two-sided-bounds"].passed
    assert named["eps-contraction"].passed
    assert plot_polygon_limit(rows) == out.svgs[""]


def test_polygon_limit_parallel_matches_serial(polygon_serial):
    # the betas are mapped over the threads; the eps estimates run serially
    assert run_polygon_limit(POLYGON_CFG, jobs=2) == polygon_serial


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


@pytest.mark.parametrize(
    "rule",
    [{"mode": "fixed", "r": -1}, {"mode": "growing", "start": -1}, {"mode": "growing", "step": -2},
     {"mode": "grow", "r": 1}],
    ids=["negative-r", "negative-start", "negative-step", "unknown-mode"],
)
def test_h_refinement_rejects_a_bad_refinement_rule(rule, tmp_path, capsys):
    cfg = {
        "kind": "h-refinement", "width": 2, "height": 1, "velocity_degree": 2,
        "pressure_degree": 1, "pressure_grids": [[2, 1], [4, 2]], "refine_velocity": rule,
        "k": 2,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "h")]) == 1
    assert not (tmp_path / "h.csv").exists()
    err = capsys.readouterr().err
    assert ("unknown refine_velocity mode 'grow'" if rule["mode"] == "grow"
            else "refinement depth must be nonnegative") in err


@pytest.mark.parametrize(
    "domain, mesh",
    [({"type": "rectangle", "width": 1, "height": 1}, {"nx": 1, "ny": 1, "refine": -1}),
     ({"type": "polygon", "n": 5}, {"refine": -1})],
    ids=["rectangle", "polygon"],
)
def test_negative_mesh_refinement_is_rejected(domain, mesh, tmp_path, capsys):
    cfg = {"kind": "single-beta", "domain": domain, "mesh": mesh,
           "elements": {"velocity_degree": 2, "pressure_degree": 1}, "k": 2}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["beta", "--config", str(p), "--out", str(tmp_path / "b")]) == 1
    assert "refinement depth must be nonnegative" in capsys.readouterr().err


H_CFG = {
    "kind": "h-refinement",
    "width": 2,
    "height": 1,
    "velocity_degree": 2,
    "pressure_degree": 1,
    "pressure_grids": [[2, 1], [4, 2]],
    "refine_velocity": {"mode": "fixed", "r": 1},
    "k": 2,
    "beta_ref": 0.387262,
}


def test_h_refinement_runner(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(H_CFG))
    rc = main(["sweep", "--config", str(p), "--out", str(tmp_path / "h")])
    assert rc == 0
    rows = _rows((tmp_path / "h.csv").read_text())
    assert len(rows) == 2
    for r in rows:
        assert float(r["ratio"]) == pytest.approx(
            float(r["h_velocity"]) / float(r["h_pressure"]), rel=1e-12
        )
        assert float(r["beta"]) > 0


def test_h_refinement_parallel_matches_serial(monkeypatch):
    cfg = dict(H_CFG, refine_velocity={"mode": "growing", "start": 0, "step": 1})
    serial = run_h_refinement(cfg, jobs=1)
    assert [r["refine_depth"] for r in _rows(serial.csv)] == ["0", "1"]
    assert run_h_refinement(cfg, jobs=2) == serial
    # a failed point keeps its mesh sizes, read from its meshes
    monkeypatch.setattr(spectral, "_RESIDUAL_TOL", 1e-30)  # unattainable: every solve fails
    failed = _rows(run_h_refinement(cfg).csv)
    columns = ("mesh", "refine_depth", "h_velocity", "h_pressure", "ratio")
    assert [r["flagged"] for r in failed] == ["1", "1"]
    assert [[r[c] for c in columns] for r in failed] == [
        [r[c] for c in columns] for r in _rows(serial.csv)
    ]


def test_failed_points_split_a_run(monkeypatch, capsys):
    # the configs between two failed points go to one compute_betas call, so
    # the point after a failure starts cold; each failure is a None result
    from lbblab import cli

    calls = []

    def compute_betas(configs, k, failures):
        calls.append(configs)
        return [EigenSolverError("no") if c == "bad" else c.upper() for c in configs]

    monkeypatch.setattr(cli, "compute_betas", compute_betas)
    runs = [["a", "b", MeshError("flat"), "c", "bad", "d"], [MeshError("thin")], ["e"]]
    assert _betas(runs, 3, 1) == [["A", "B", None, "C", None, "D"], [None], ["E"]]
    assert calls == [["a", "b"], ["c", "bad", "d"], ["e"]]
    assert capsys.readouterr().err.splitlines() == [
        "warning: sweep point failed: MeshError: flat",
        "warning: sweep point failed: EigenSolverError: no",
        "warning: sweep point failed: MeshError: thin",
    ]


def test_p_sweep_sqrt_rule():
    label, degree = _degree_rule({"type": "sqrt", "coefficient": 1.0})
    assert (label, degree(9)) == ("k=ceil(1.0*sqrt(n))", 3)
    label, degree = _degree_rule({"type": "sqrt"})
    assert (label, degree(9)) == ("k=ceil(1.0*sqrt(n))", 3)
    assert _degree_rule({"type": "sqrt", "coefficient": 0.5})[1](16) == 2
    assert _degree_rule({"type": "offset", "d": 3})[1](2) == -1
    assert _degree_rule({"type": "half"})[0] == "k=ceil(n/2)"
    with pytest.raises(ValueError, match="unknown degree rule 'cube'"):
        _degree_rule({"type": "cube"})
    cfg = {
        "kind": "p-sweep",
        "width": 2, "height": 1,
        "grids": [[1, 1]],
        "n_values": [4, 9],
        "k_rules": [{"type": "sqrt", "coefficient": 1.0}],
        "k": 2,
    }
    out = run_p_sweep(cfg)
    rows = _rows(out.csv)
    assert [int(r["pressure_degree"]) for r in rows] == [2, 3]


def test_residual_failures_are_flagged_not_silent(monkeypatch):
    cfg = dict(SV_CFG)
    cfg["a_start"], cfg["a_stop"] = 0.3, 0.4
    monkeypatch.setattr(spectral, "_RESIDUAL_TOL", 1e-30)  # unattainable: every solve fails
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
        "k_rules": [{"type": "fixed", "k": 0}],
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


def test_arpack_non_convergence_is_a_failed_point(monkeypatch, capsys):
    # one Lanczos restart cannot converge six pairs on the ARPACK route
    monkeypatch.setattr(spectral, "_LANCZOS_RESTARTS", 1)
    pc = _pair(sv_mesh(4, 1, 12, 3, 0.4, 0.0), 3, 2, SolverOptions(dense_cap=1))
    system = assemble_system(
        build_dof_map(pc.velocity_mesh, pc.velocity_space),
        build_dof_map(pc.velocity_mesh, pc.pressure_space),
    )
    op = SchurOperator(system.C, factorize_spd(system.Ahat), system.D, system.E)
    with pytest.raises(EigenSolverError, match="arpack route"):
        smallest_generalized_eigs(op, system.Mp, 6, deflate=system.m, options=pc.solver)
    assert _betas([[pc]], 6, 1) == [[None]]
    assert "warning: sweep point failed: EigenSolverError: arpack route" in capsys.readouterr().err


def test_solver_defaults_match_library():
    assert _solver_options({}, None) == SolverOptions()
    assert _solver_options({"solver": {"seed": 3}}, 5) == SolverOptions(seed=5)
    # the residual contract and the restart cap are constants, not solver keys
    for key in ("symmetry_tol", "residual_tol", "max_iterations"):
        with pytest.raises(TypeError, match=key):
            _solver_options({"solver": {key: 1e-10}})


@pytest.mark.parametrize(
    "path",
    sorted(ROOT.glob("configs/*.json")) + sorted(ROOT.glob("perfbench/workloads/*.json")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_config_solver_blocks_build(path):
    cfg = json.loads(path.read_text())
    assert isinstance(_solver_options(cfg), SolverOptions)


def test_every_config_key_read_is_set_somewhere():
    # a key that cli.py reads must be set by a committed config or workload,
    # or by this file: an option that nothing sets is a branch nothing runs
    source = (ROOT / "src/lbblab/cli.py").read_text()
    read = set(re.findall(r"\b(?:cfg|dom|disc|el|rule)(?:\.get\(|\[)\"(\w+)\"", source))
    assert {"kind", "beta_ref", "converge_tol"} <= read

    def keys(node):
        if isinstance(node, dict):
            return set(node) | {k for v in node.values() for k in keys(v)}
        if isinstance(node, list):
            return {k for v in node for k in keys(v)}
        return set()

    configs = sorted(ROOT.glob("configs/*.json")) + sorted(ROOT.glob("perfbench/workloads/*.json"))
    set_keys = {k for path in configs for k in keys(json.loads(path.read_text()))}
    tests = Path(__file__).read_text()
    assert sorted(k for k in read - set_keys if f'"{k}"' not in tests) == []


def _main_on(cfg, command, tmp_path, *flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path), "--out", str(tmp_path / "run"), *flags])


@pytest.mark.parametrize("key", ["converge_tol", "converge_tl"])
def test_unread_config_key_is_warned_about(key, tmp_path, capsys):
    # a misspelled check key drops its check: the run says so on stderr,
    # and the exit code stays what the checks that did run make it
    cfg = {
        "kind": "p-sweep",
        "width": 2,
        "height": 1,
        "grids": [[1, 1]],
        "n_values": [2, 4],
        "k_rules": [{"type": "half"}],
        "k": 2,
        "beta_ref": 0.387262,
        key: 0.02,
    }
    assert _main_on(cfg, "sweep", tmp_path, "--check") == 0
    out, err = capsys.readouterr()
    if key == "converge_tol":
        assert "p-convergence: pass" in out
        assert err == ""
    else:
        assert "p-convergence" not in out
        assert err == "warning: config key 'converge_tl' is not read by p-sweep\n"


def test_perturb_rate_warns_of_a_solver_block(tmp_path, capsys):
    # perturb-rate solves no eigenproblem; `out` is read even under --out
    cfg = {"kind": "perturb-rate", "n_values": [8, 16], "grid_density": 128,
           "solver": {"seed": 3}, "out": "unused"}
    assert _main_on(cfg, "perturb", tmp_path) == 0
    assert capsys.readouterr().err == "warning: config key 'solver' is not read by perturb-rate\n"
    assert (tmp_path / "run.csv").exists()


def _cells(header, lines):
    """Rows as the CSV reader gives them, from whitespace-separated cells."""
    return [dict(zip(header.split(), line.split())) for line in lines]


# two meshes with a flagged NaN row, roundoff betas at a = 0 and a beta
# above the reference (dropped on the log axis of diff_ref)
SV_ROWS = _cells("mesh a beta_ref n_velocity beta flagged", [
    "4x1 -0.1 0.218444 196 0.23 0",
    "4x1 0 0.218444 196 1.3e-15 0",
    "4x1 0.1 0.218444 196 0.12 0",
    "4x1 0.2 0.218444 196 0.19 0",
    "8x2 -0.1 0.218444 868 0.21 0",
    "8x2 0 0.218444 868 2.1e-16 0",
    "8x2 0.1 0.218444 868 0.125 0",
    "8x2 0.2 0.218444 0 nan 1",
])
# (mesh, rule) pairs interleaved, n out of order, no reference
P_ROWS = _cells("mesh rule n beta beta_ref", [
    "1x1 k=n-1 4 0.31 nan",
    "1x1 k=n-1 2 0.42 nan",
    "1x1 k=ceil(n/2) 4 0.36 nan",
    "2x2 k=n-1 6 0.29 nan",
    "1x1 k=n-1 6 0.3 nan",
    "2x2 k=n-1 2 0.4 nan",
    "1x1 k=ceil(n/2) 2 0.45 nan",
])
SPECTRUM_ROWS = _cells("j sigma cosserat_low cosserat_high", [
    "1 0.04 0.2 0.8", "2 0.31 0.2 0.8", "3 0.5 0.2 0.8", "4 0.72 0.2 0.8",
])
POLYGON_ROWS = _cells("n beta lower_bound upper_bound", [
    "8 0.61 0.5 0.7", "16 nan 0.58 0.705", "32 0.69 0.64 0.707",
])
PERTURB_ROWS = _cells("n eps_forward eps_inverse jacobian_deviation", [
    "8 0.2 0.25 0.3", "16 0.1 0.12 0", "32 0.05 0.06 0.08",
])
H_ROWS = _cells("ratio beta beta_ref", [
    "1.4 0.38 0.387262", "0.7 0.385 0.387262", "0.35 nan 0.387262",
])

# SHA-256 of each plot of the rows above, recorded before the plots shared
# their row grouping; regenerating a plot from its own CSV cannot see a
# change made to both
PINNED_PLOTS = {
    "sv_sweep": (lambda: plot_sv_sweep(SV_ROWS),
                 "0bbf8b28ec442b6abea21a3dabf4afc56e0cc11715e8192afd2314bc6f6fefde"),
    "sv_sweep_diff_fine": (lambda: plot_sv_sweep_diff_fine(SV_ROWS, 1e-6),
                           "1819c2cd943d4c23bca22201747c9f46bdfafcfe0631dd9484e99eccf7b6bd8f"),
    "sv_sweep_diff_ref": (lambda: plot_sv_sweep_diff_ref(SV_ROWS),
                          "917d0b8239ac27dcbc79576064fa50d7378b425584da9dad728d5d3959e39867"),
    "p_sweep": (lambda: plot_p_sweep(P_ROWS),
                "ca0951ccd7f15c14a232f6d88185435aadfb5bb325ad1796d1282c343e6d042f"),
    "spectrum": (lambda: plot_spectrum(SPECTRUM_ROWS),
                 "46e78edb0ac43aa53e629dc3cd05a9d7aa56ba57bd7495b8584c280643ad9290"),
    "spectrum_no_interval": (
        lambda: plot_spectrum([dict(r, cosserat_low="nan", cosserat_high="nan")
                               for r in SPECTRUM_ROWS]),
        "12da37cb9f7b206037a89b67bd00d418a673bb7e80562f2676d3fd7c937c3b82"),
    "polygon_limit": (lambda: plot_polygon_limit(POLYGON_ROWS),
                      "33711b28bf820298d643ae2d55e51b2c05964510d3ec056e865a7e9e2b541a95"),
    "perturb_rate": (lambda: plot_perturb_rate(PERTURB_ROWS),
                     "397eebeeb14eb947b69fbf2542fde64101653e93cbdac08d6d20943d830b121a"),
    "h_refinement": (lambda: plot_h_refinement(H_ROWS),
                     "f9f2c3a20b092e957fb6a31a84dcfb8a434bdbb137b089deccb2b43b37a3ed8e"),
}


@pytest.mark.parametrize("name", sorted(PINNED_PLOTS))
def test_plot_bytes_are_pinned(name):
    plot, digest = PINNED_PLOTS[name]
    assert hashlib.sha256(plot().encode()).hexdigest() == digest


def test_eigenfunction_csv_bytes_are_pinned():
    pc = _pair(sv_mesh(2, 1, 2, 1, 0.4, 0.3), 4, 3, SolverOptions())
    dof_p = build_dof_map(pc.velocity_mesh, pc.pressure_space)
    # exact coefficients of 17 significant digits, not an eigensolver's last bits
    q = (np.arange(dof_p.n_global) - dof_p.n_global / 2) / 7
    text = _eigenfunction_csv(SimpleNamespace(dof_p=dof_p, eigenfunction=q))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "00fcbaa4831efd21867b79fe961aeef3446cfc2896bd2db04dc4f0fda477a1ee"
    )


def test_eigenfunction_export(tmp_path, monkeypatch):
    from lbblab import cli

    real, solved = cli.compute_beta, []

    def compute_beta(pc, k):
        solved.append((pc, real(pc, k)))
        return solved[-1][1]

    monkeypatch.setattr(cli, "compute_beta", compute_beta)
    cfg = {
        "kind": "single-beta",
        "domain": {"type": "rectangle", "width": 2, "height": 1},
        "mesh": {"nx": 2, "ny": 1, "b": 0.4, "a": 0.3, "split": True},
        "elements": {"velocity_degree": 4, "pressure_degree": 3},
        "k": 2,
        "eigenfunction_out": str(tmp_path / "eig.csv"),
    }
    assert _main_on(cfg, "beta", tmp_path) == 0
    [(pc, r)] = solved
    q = r.eigenfunction
    dv = build_dof_map(pc.velocity_mesh, pc.velocity_space)
    dp = build_dof_map(pc.velocity_mesh, pc.pressure_space)
    sys_ = assemble_system(dv, dp)
    assert q @ (sys_.Mp @ q) == pytest.approx(1.0, abs=1e-10)
    assert abs(sys_.m @ q) <= 1e-9
    nz = q[np.abs(q) > 1e-12 * np.abs(q).max()]
    assert nz[0] > 0  # canonical sign

    rows = _rows((tmp_path / "eig.csv").read_text())
    assert len(rows) == dp.n_global  # discontinuous: one row per dof
    row = rows[17]
    g = int(row["global_dof"])
    assert float(row["coefficient"]) == pytest.approx(q[g], rel=1e-15)
    assert float(row["x"]) == pytest.approx(dp.dof_points[g, 0], rel=1e-15)


@pytest.mark.parametrize("log_y", [False, True], ids=["linear", "log"])
def test_non_finite_reference_line_is_dropped(log_y):
    series = [("s", [1.0, 2.0, 3.0], [0.1, 0.2, 0.4])]
    plain = line_plot(series, "x", "y", log_y=log_y)
    for ref in (math.nan, math.inf):
        assert line_plot(series, "x", "y", log_y=log_y, ref_lines=[("r", ref)]) == plain


P_CFG = {
    "kind": "p-sweep", "width": 2, "height": 1, "grids": [[1, 1]], "n_values": [2],
    "k_rules": [{"type": "half"}], "k": 2,
}


@pytest.mark.parametrize(
    "cfg, command, key",
    [(SV_CFG, "sweep", "grids"), (P_CFG, "sweep", "grids"), (P_CFG, "sweep", "n_values"),
     (P_CFG, "sweep", "k_rules"), (H_CFG, "sweep", "pressure_grids"),
     (POLYGON_CFG, "polygon", "n_values"),
     ({"kind": "perturb-rate", "grid_density": 128}, "perturb", "n_values")],
    ids=lambda v: v["kind"] if isinstance(v, dict) else v,
)
def test_empty_point_list_is_rejected(cfg, command, key, tmp_path, capsys):
    assert _main_on(dict(cfg, **{key: []}), command, tmp_path) == 1
    assert capsys.readouterr().err == f"error: config key {key!r} lists no points\n"
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize(
    "cfg, command, key, points, entry",
    [(SV_CFG, "sweep", "grids", [[4, 1], [2, 1], [4, 1]], "(4, 1)"),
     (P_CFG, "sweep", "grids", [[1, 1], [1, 1]], "(1, 1)"),
     (P_CFG, "sweep", "n_values", [2, 4, 2], "2"),
     # one label from two different rules
     (P_CFG, "sweep", "k_rules", [{"type": "sqrt"}, {"type": "sqrt", "coefficient": 1.0}],
      "k=ceil(1.0*sqrt(n))"),
     (POLYGON_CFG, "polygon", "n_values", [8, 8], "8"),
     ({"kind": "perturb-rate", "grid_density": 128}, "perturb", "n_values", [8, 16, 8], "8")],
    ids=["sv-sweep-grids", "p-sweep-grids", "p-sweep-n_values", "p-sweep-k_rules",
         "polygon-limit", "perturb-rate"],
)
def test_duplicated_point_is_rejected(cfg, command, key, points, entry, tmp_path, capsys):
    assert _main_on(dict(cfg, **{key: points}), command, tmp_path) == 1
    assert capsys.readouterr().err == f"error: config key {key!r} lists {entry} twice\n"
    assert not (tmp_path / "run.csv").exists()


def test_repeated_pressure_grid_is_a_new_point(tmp_path):
    # in growing mode the second [2, 1] is refined one level deeper
    cfg = dict(H_CFG, pressure_grids=[[2, 1], [2, 1]],
               refine_velocity={"mode": "growing", "start": 1, "step": 1})
    assert _main_on(cfg, "sweep", tmp_path) == 0
    rows = list(csv.DictReader(open(tmp_path / "run.csv")))
    assert len(rows) == 2


BETA_CFG = {
    "kind": "single-beta", "domain": {"type": "rectangle", "width": 1, "height": 1},
    "mesh": {"nx": 1, "ny": 1}, "elements": {"velocity_degree": 2, "pressure_degree": 1},
}


@pytest.mark.parametrize(
    "cfg, command",
    [(BETA_CFG, "beta"), (dict(BETA_CFG, kind="spectrum"), "spectrum"), (SV_CFG, "sweep"),
     (P_CFG, "sweep"), (H_CFG, "sweep"), (POLYGON_CFG, "polygon")],
    ids=["single-beta", "spectrum", "sv-sweep", "p-sweep", "h-refinement", "polygon-limit"],
)
@pytest.mark.parametrize("k", [0, -1], ids=["k0", "k-1"])
def test_eigenvalue_count_below_one_is_rejected(cfg, command, k, tmp_path, capsys):
    # a config error, not one flagged row per sweep point
    assert _main_on(dict(cfg, k=k), command, tmp_path) == 1
    assert capsys.readouterr().err == "error: config key 'k' must be at least 1\n"
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize(
    "a_start, a_stop, a_step, a_values",
    [(0.0, 0.1, 0.06, [0.0, 0.06]),
     # (0.06 - 0.02) / 0.01 is 3.999999999999999: the stop is still a point
     (0.02, 0.06, 0.01, [0.02, 0.03, 0.04, 0.05, 0.06])],
    ids=["stop-between-steps", "stop-short-by-rounding"],
)
def test_sv_sweep_a_range_ends_at_a_stop(a_start, a_stop, a_step, a_values):
    cfg = dict(SV_CFG, a_start=a_start, a_stop=a_stop, a_step=a_step, beta_ref=None)
    rows = _rows(run_sv_sweep(cfg).csv)
    assert [float(r["a"]) for r in rows] == pytest.approx(a_values, rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "a_stop, a_step, message",
    [(0.4, 0.0, "config key 'a_step' must be positive"),
     (0.4, -0.1, "config key 'a_step' must be positive"),
     (-0.2, 0.1, "config key 'a_stop' lies below 'a_start': no points")],
    ids=["zero-step", "negative-step", "empty-range"],
)
def test_sv_sweep_bad_a_range_is_rejected(a_stop, a_step, message, tmp_path, capsys):
    assert _main_on(dict(SV_CFG, a_stop=a_stop, a_step=a_step), "sweep", tmp_path) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run.csv").exists()


def _points_built(monkeypatch):
    """The sv-sweep points built from here on, as (nx, ny, a)."""
    from lbblab import cli

    built, real = [], cli.sv_mesh

    def mesh(width, height, nx, ny, b, a=None):
        built.append((nx, ny, a))
        return real(width, height, nx, ny, b, a)

    monkeypatch.setattr(cli, "sv_mesh", mesh)
    return built


@pytest.mark.parametrize(
    "key, value, message",
    [("grids", [[4, 1], [0, 1]], "nx and ny must be at least 1"),
     ("width", -4, "width and height must be positive"),
     ("b", 0.7, "b must lie in [0, 1/2)")],
    ids=["empty-grid", "negative-width", "b-out-of-range"],
)
def test_sv_sweep_config_error_is_an_error(key, value, message, tmp_path, capsys, monkeypatch):
    # not one flagged row per point with exit 0: no point is built
    built = _points_built(monkeypatch)
    assert _main_on(dict(SV_CFG, **{key: value}), "sweep", tmp_path) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert built == []
    assert not (tmp_path / "run.csv").exists()


def test_sv_sweep_a_out_of_range_flags_its_row(tmp_path, capsys):
    cfg = dict(SV_CFG, grids=[[4, 1]], a_start=-0.5, a_stop=-0.49, a_step=0.01, beta_ref=None)
    assert _main_on(cfg, "sweep", tmp_path) == 0
    rows = list(csv.DictReader(open(tmp_path / "run.csv")))
    assert [(float(r["a"]), r["flagged"]) for r in rows] == [(-0.5, "1"), (-0.49, "0")]
    assert ("warning: sweep point failed: MeshError: a must lie in (-1/2, 1/2)\n"
            in capsys.readouterr().err)


@pytest.mark.parametrize("grid", [[4, 1], [8, 2]], ids=["dense", "arpack"])
def test_negative_seed_is_rejected_before_any_point(grid, tmp_path, capsys, monkeypatch):
    built = _points_built(monkeypatch)
    cfg = dict(SV_CFG, grids=[grid])
    assert _main_on(cfg, "sweep", tmp_path, "--seed", "-1") == 1
    assert capsys.readouterr().err == (
        "error: solver option 'seed' must be a non-negative integer, got -1\n")
    assert built == []
    assert not (tmp_path / "run.csv").exists()


def test_bool_solver_option_is_rejected_before_any_point(tmp_path, capsys, monkeypatch):
    # JSON's false is no integer: taken as 0, it would send every point to ARPACK
    built = _points_built(monkeypatch)
    cfg = dict(SV_CFG, solver={"dense_cap": False})
    assert _main_on(cfg, "sweep", tmp_path) == 1
    assert capsys.readouterr().err == (
        "error: solver option 'dense_cap' must be a non-negative integer, got False\n")
    assert built == []
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize(
    "window",
    [[0.1, 0.02], [0.02], [0.02, "0.1"], [True, 0.1], 0.1],
    ids=["inverted", "one-number", "string", "bool", "scalar"],
)
def test_sv_sweep_bad_slope_window_is_an_error(window, tmp_path, capsys, monkeypatch):
    # an inverted window selects no point, and its check would go without a word
    built = _points_built(monkeypatch)
    assert _main_on(dict(SV_CFG, slope_window=window), "sweep", tmp_path, "--check") == 1
    assert capsys.readouterr().err == (
        f"error: config key 'slope_window' must be two numbers w0 <= w1, got {window!r}\n")
    assert built == []
    assert not (tmp_path / "run.csv").exists()


def _elements(**degrees):
    return dict(BETA_CFG, elements=dict(BETA_CFG["elements"], **degrees))


@pytest.mark.parametrize(
    "command, cfg, key, value",
    [("sweep", dict(SV_CFG, k=2.5), "k", 2.5),
     ("sweep", dict(SV_CFG, k=True), "k", True),
     ("sweep", dict(SV_CFG, velocity_degree=4.7), "velocity_degree", 4.7),
     ("sweep", dict(SV_CFG, pressure_degree=3.0), "pressure_degree", 3.0),
     ("beta", dict(BETA_CFG, k=2.0), "k", 2.0),
     ("beta", _elements(velocity_degree=3.5), "velocity_degree", 3.5),
     ("beta", _elements(pressure_degree=False), "pressure_degree", False),
     ("sweep", dict(H_CFG, pressure_degree=0.5), "pressure_degree", 0.5),
     ("polygon", dict(POLYGON_CFG, velocity_degree=4.7), "velocity_degree", 4.7),
     ("sweep", dict(P_CFG, n_values=[2.5]), "n_values", 2.5),
     ("sweep", dict(P_CFG, k_rules=[{"type": "offset", "d": 0.5}]), "d", 0.5),
     ("sweep", dict(P_CFG, k_rules=[{"type": "fixed", "k": 1.0}]), "k", 1.0)],
    ids=["sv-k-float", "sv-k-bool", "sv-velocity", "sv-pressure", "beta-k", "beta-velocity",
         "beta-pressure-bool", "h-pressure", "polygon-velocity", "p-n", "p-offset", "p-fixed"],
)
def test_non_integer_config_key_is_an_error(command, cfg, key, value, tmp_path, capsys,
                                            monkeypatch):
    # truncated, "k": 2.5 wrote 2 sigma columns and "velocity_degree": 4.7 ran P4
    built = _points_built(monkeypatch)
    assert _main_on(cfg, command, tmp_path) == 1
    assert capsys.readouterr().err == (
        f"error: config key {key!r} must be an integer, got {value!r}\n")
    assert built == []
    assert not (tmp_path / "run.csv").exists()
