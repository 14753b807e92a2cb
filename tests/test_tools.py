import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def run_configs():
    spec = importlib.util.spec_from_file_location("run_configs", ROOT / "tools" / "run_configs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
