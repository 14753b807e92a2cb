import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run_configs():
    return _tool("run_configs")


@pytest.fixture(scope="module")
def diff_outputs():
    return _tool("diff_outputs")


def test_run_configs_refuses_an_outdir_that_holds_files(run_configs, tmp_path, capsys,
                                                        monkeypatch):
    # a stale output left in a reused directory would hide from diff -r
    (tmp_path / "old.csv").write_text("stale\n")

    def run(*args, **kwargs):
        raise AssertionError("a config ran")

    monkeypatch.setattr(subprocess, "run", run)
    assert run_configs.main([str(tmp_path), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path.resolve()} already holds files; give a fresh OUTDIR\n"
    assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]


def _outputs(directory, files):
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)
    return directory


_CSV = "mesh,beta,sigma_1,residual_max,flagged\n4x1,0.25,0.0625,1e-15,0\n8x2,0.5,0.25,2e-15,0\n"


def test_diff_outputs_reports_moves_per_column_and_lists_other_changes(diff_outputs, tmp_path,
                                                                       capsys):
    moved = _CSV.replace("0.25,0.0625,1e-15", "0.25000000000000006,0.0625,3e-15").replace(
        "0.5,0.25,2e-15", "0.5,0.25000000000000011,2e-15")
    old = _outputs(tmp_path / "old", {"a.csv": _CSV, "b.csv": _CSV, "c.csv": _CSV,
                                      "a.stdout": "[check] x: pass\n", "a.svg": "<svg/>",
                                      "a.exit": "0\n", "gone.stderr": ""})
    new = _outputs(tmp_path / "new", {"a.csv": moved, "b.csv": _CSV,
                                      "c.csv": _CSV.replace("0.5,", "nan,"),
                                      "a.stdout": "[check] x: pass\n", "a.svg": "<svg />",
                                      "a.exit": "0\n", "new.exit": "1\n"})
    assert diff_outputs.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a.csv: 3 cells moved, largest 1.11e-16, residual_max 2e-15",
        "  beta: 1 moved, largest 5.55e-17",
        "  sigma_1: 1 moved, largest 1.11e-16",
        "  residual_max: 1 moved, largest 2e-15",
        "b.csv: 0 cells moved, largest 0",
        "differs: a.svg",
        "differs beyond moved numbers: c.csv",
        f"only in {old}: gone.stderr",
        f"only in {new}: new.exit",
    ]


def test_diff_outputs_exits_0_on_moved_numbers_alone(diff_outputs, tmp_path, capsys):
    old = _outputs(tmp_path / "old", {"a.csv": _CSV, "a.exit": "0\n"})
    new = _outputs(tmp_path / "new", {"a.csv": _CSV.replace("1e-15", "4e-15"), "a.exit": "0\n"})
    assert diff_outputs.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a.csv: 1 cells moved, largest 0, residual_max 3e-15",
        "  residual_max: 1 moved, largest 3e-15",
    ]
