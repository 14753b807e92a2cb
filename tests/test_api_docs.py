"""The package's public names and the README agree with the code."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from lbblab import analytic, fem, geometry, infsup, perturb, spectral
from lbblab.spectral import SolverOptions

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "module", [spectral, infsup, fem, perturb, geometry, analytic], ids=lambda m: m.__name__
)
def test_public_names_resolve(module):
    # the package's own names resolve by importing it; __all__ is read only
    # by a star import, so a stale entry would otherwise go unnoticed
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_readme_solver_table_is_solver_options():
    text = (ROOT / "README.md").read_text()
    table = text.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", table, flags=re.MULTILINE)
    documented = {key: ast.literal_eval(default) for key, default in rows}
    assert documented == {f.name: f.default for f in dataclasses.fields(SolverOptions)}
