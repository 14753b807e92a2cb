"""Run every committed config through the CLI and keep everything it leaves.

    python3 tools/run_configs.py OUTDIR [--jobs N]

Each `configs/<name>.json` runs in its own subprocess as

    python -m lbblab.cli <command> --config configs/<name>.json \
        --out OUTDIR/<name> --seed 0 --jobs N --check

from the checkout's root and on the checkout's own `src`, where <command>
is the subcommand that `lbblab.cli._COMMAND_KINDS` maps the config's kind
to, and N is 2 unless `--jobs` says otherwise.  Next to the CSV and SVG
outputs it writes `<name>.stdout`, `<name>.stderr` and `<name>.exit`.
Run it on two checkouts, or with `--jobs 1` and `--jobs 2`, each into a
fresh directory, and compare the outputs with `diff -r`.  An OUTDIR that
already holds files is refused (exit 2, nothing run): an output that a
change stops writing would otherwise survive there from an earlier run
and hide from `diff -r`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lbblab.cli import _COMMAND_KINDS  # noqa: E402


def _command(kind: str) -> str:
    (command,) = [c for c, kinds in _COMMAND_KINDS.items() if kind in kinds]
    return command


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    out = args.outdir.resolve()
    if out.is_dir() and any(out.iterdir()):
        print(f"error: {out} already holds files; give a fresh OUTDIR", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for path in sorted((ROOT / "configs").glob("*.json")):
        name = path.stem
        command = _command(json.loads(path.read_text())["kind"])
        proc = subprocess.run(
            [sys.executable, "-m", "lbblab.cli", command,
             "--config", str(path.relative_to(ROOT)), "--out", str(out / name),
             "--seed", "0", "--jobs", str(args.jobs), "--check"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        (out / f"{name}.stdout").write_text(proc.stdout)
        (out / f"{name}.stderr").write_text(proc.stderr)
        (out / f"{name}.exit").write_text(f"{proc.returncode}\n")
        print(f"{name}: {command} exit {proc.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
