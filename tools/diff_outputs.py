"""Compare two output directories of `tools/run_configs.py`.

    python3 tools/diff_outputs.py OLD NEW

For each CSV in both it prints the number of cells whose values moved and,
per column, the largest absolute move; the largest move over the file
leaves `residual_max` out and reports it apart.  It then lists every file
that is on one side only, every stdout, stderr, exit or SVG file that
differs, and every CSV that differs in more than numeric values (its
header, its row count, or a text or NaN cell), and exits 1 if there is
any of these.  Moved numbers alone exit 0.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

RESIDUAL = "residual_max"


def _moves(old: Path, new: Path) -> dict[str, tuple[int, float]] | None:
    """Per column, (moved cells, largest absolute move) of two CSVs; None
    when they differ in more than the values of finite numbers."""
    a = list(csv.reader(old.open(newline="")))
    b = list(csv.reader(new.open(newline="")))
    if not a or not b or a[0] != b[0] or [len(r) for r in a] != [len(r) for r in b]:
        return None
    moves = {}
    for row_a, row_b in zip(a[1:], b[1:]):
        for column, x, y in zip(a[0], row_a, row_b):
            if x == y:
                continue
            try:
                move = abs(float(x) - float(y))
            except ValueError:
                return None
            if not math.isfinite(move):
                return None
            count, largest = moves.get(column, (0, 0.0))
            moves[column] = (count + 1, max(largest, move))
    return {column: moves[column] for column in a[0] if column in moves}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    names = {p.name for d in (args.old, args.new) for p in d.iterdir() if p.is_file()}
    differ = []
    for name in sorted(names):
        old, new = args.old / name, args.new / name
        if not (old.is_file() and new.is_file()):
            differ.append(f"only in {args.old if old.is_file() else args.new}: {name}")
        elif name.endswith(".csv"):
            moves = _moves(old, new)
            if moves is None:
                differ.append(f"differs beyond moved numbers: {name}")
                continue
            others = [m for column, (_, m) in moves.items() if column != RESIDUAL]
            line = (f"{name}: {sum(c for c, _ in moves.values())} cells moved, "
                    f"largest {max(others, default=0.0):.3g}")
            if RESIDUAL in moves:
                line += f", {RESIDUAL} {moves[RESIDUAL][1]:.3g}"
            print(line)
            for column, (count, largest) in moves.items():
                print(f"  {column}: {count} moved, largest {largest:.3g}")
        elif old.read_bytes() != new.read_bytes():
            differ.append(f"differs: {name}")
    for line in differ:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
