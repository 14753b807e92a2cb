"""Golden gate: every CSV row a workload writes must match the recorded one.

`beta`, every `sigma_j` and every other numeric cell match to 1e-10
absolute, the solver's residual contract; `config_hash`, `flagged` and the
remaining text cells match exactly; `residual_max` is not compared.  The
`[check]` verdicts printed by `lbblab.cli.main` must be the recorded ones.

Record the goldens (only when an output change is intended, and say so in
CHANGES.md):

    python3 perfbench/gate.py --record
"""

from __future__ import annotations

import csv
import io
import re
from pathlib import Path

TOL = 1e-10
EXACT = {"config_hash", "flagged"}
IGNORED = {"residual_max"}
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_CHECK = re.compile(r"^\[check\] (\S+): (pass|FAIL) ")


def verdicts(stdout: str) -> list[str]:
    """`name: pass|FAIL` for every `[check]` line, in printed order."""
    return [f"{m[1]}: {m[2]}" for m in map(_CHECK.match, stdout.splitlines()) if m]


def _cell_ok(col: str, want: str, got: str) -> bool:
    if col in IGNORED or want == got:
        return True
    if col in EXACT:
        return False
    try:
        return abs(float(want) - float(got)) <= TOL
    except ValueError:
        return False


def failed_rows(golden_csv: str, csv_text: str) -> list[int]:
    """Indices of golden rows that the new CSV misses or does not match."""
    want = list(csv.reader(io.StringIO(golden_csv)))
    got = list(csv.reader(io.StringIO(csv_text)))
    header, rows = want[0], want[1:]
    if not got or got[0] != header:
        return list(range(len(rows)))
    bad = []
    for i, row in enumerate(rows):
        new = got[i + 1] if i + 1 < len(got) else None
        if new is None or len(new) != len(row) or not all(
            _cell_ok(col, w, g) for col, w, g in zip(header, row, new)
        ):
            bad.append(i)
    return bad


def load(workload: str) -> tuple[str, list[str]]:
    csv_text = (GOLDEN_DIR / f"{workload}.csv").read_text()
    checks = (GOLDEN_DIR / f"{workload}.checks").read_text().splitlines()
    return csv_text, checks


def score(golden: tuple[str, list[str]], csv_text: str, stdout: str, rc: int) -> tuple[int, int]:
    """(points attempted, points failed) for one `main` call.

    A non-zero exit code or a changed check verdict fails every point of the
    call, since the call as a whole gave the user a wrong answer.
    """
    golden_csv, golden_checks = golden
    attempted = len(golden_csv.splitlines()) - 1
    if rc != 0 or verdicts(stdout) != golden_checks:
        return attempted, attempted
    return attempted, len(failed_rows(golden_csv, csv_text))


def _record() -> None:
    import run

    GOLDEN_DIR.mkdir(exist_ok=True)
    run.import_lbblab()
    for name in run.WORKLOADS:
        outdir = run.work_dir("golden")
        rc, stdout = run.call_main(name, outdir, seed=0)
        if rc != 0:
            raise SystemExit(f"{name}: main exited {rc}")
        (GOLDEN_DIR / f"{name}.csv").write_bytes((outdir / f"{name}.csv").read_bytes())
        (GOLDEN_DIR / f"{name}.checks").write_text("".join(f"{v}\n" for v in verdicts(stdout)))
        print(f"recorded {name}")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    _record()
