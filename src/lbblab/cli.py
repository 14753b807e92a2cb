"""Experiment runner: JSON configs in, deterministic CSV tables and SVG plots out.

Subcommands `beta`, `sweep`, `spectrum`, `polygon`, `perturb` each take
--config <file> plus overriding --out and --seed, --jobs N (worker threads
for sweep points) and --check.  Exit codes: 0 all good, 1 config or
computation error, 2 a declared check failed under --check.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import io
import itertools
import json
import math
import operator
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import analytic, perturb
from .fem import BoundaryCondition, Continuity, ElementSpace, Family
from .geometry import (
    Mesh,
    MeshError,
    SvSplitParams,
    element_sizes,
    load_mesh,
    rect_grid,
    refine_chain,
    regular_polygon_mesh,
    save_mesh,
    sv_split,
)
from .infsup import (
    BetaResult,
    DimensionZeroError,
    PairConfig,
    compute_beta,
    compute_betas,
)
from .spectral import EigenSolverError, NotPositiveDefinite, SolverOptions
from .svgplot import line_plot

# fixed check thresholds: beta at a = 0 counts as zero up to _ZERO_BETA_MAX,
# beta(a) is linear near a = 0 below _SLOPE_REL_TOL relative residual, and
# eps_forward halves with n doubled when the ratio lies in _EPS_RATIOS
_ZERO_BETA_MAX = 1e-6
_SLOPE_REL_TOL = 0.2
_EPS_RATIOS = (0.35, 0.65)

_BETA_COLS = [
    "config_hash",
    "n_velocity",
    "n_pressure",
    "max_diameter_velocity",
    "min_inradius_pressure",
    "beta",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[check] {self.name}: {'pass' if self.passed else 'FAIL'} ({self.detail})"


@dataclass
class RunOutput:
    csv: str
    extra_csv: dict = field(default_factory=dict)
    svgs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)


def _g(x: float) -> str:
    return f"{float(x):.17g}"


def _cfg_hash(cfg: dict) -> str:
    import hashlib

    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12]


def _solver_options(cfg: dict, seed_override=None) -> SolverOptions:
    """The config's `solver` block; SolverOptions holds the defaults and
    rejects unknown keys."""
    s = dict(cfg.get("solver", {}))
    if seed_override is not None:
        s["seed"] = seed_override
    return SolverOptions(**s)


def _center_quad(grid: Mesh) -> int:
    lo = grid.points.min(axis=0)
    hi = grid.points.max(axis=0)
    center = 0.5 * (lo + hi)
    centroids = grid.points[grid.elements].mean(axis=1)
    return int(np.argmin(np.linalg.norm(centroids - center, axis=1)))


def sv_mesh(
    width: float,
    height: float,
    nx: int,
    ny: int,
    b: float,
    a: float | None = None,
) -> Mesh:
    """Rectangle quad grid split into four triangles per quad; the quad
    nearest the domain center gets decentering `a`."""
    grid = rect_grid(width, height, nx, ny)
    if a is None:
        params = SvSplitParams(b=b)
    else:
        params = SvSplitParams(b=b, special=(_center_quad(grid), a))
    return sv_split(grid, params)


def _pair(
    mesh: Mesh,
    velocity_degree: int,
    pressure_degree: int,
    solver: SolverOptions,
    **kwargs,
) -> PairConfig:
    """C0 zero-trace velocities against discontinuous pressures of the mesh's
    element family."""
    family = Family.QUAD if mesh.is_quad else Family.TRIANGLE
    vel = ElementSpace(family, int(velocity_degree), Continuity.C0, BoundaryCondition.ZERO_TRACE)
    pre = ElementSpace(family, int(pressure_degree), Continuity.DISCONTINUOUS,
                       BoundaryCondition.NONE)
    return PairConfig(velocity_space=vel, pressure_space=pre, velocity_mesh=mesh, solver=solver,
                      **kwargs)


def _domain_mesh(cfg: dict) -> Mesh:
    dom = cfg["domain"]
    kind = dom["type"]
    if kind == "rectangle":
        disc = cfg["mesh"]
        if disc.get("split", False):
            mesh = sv_mesh(
                dom["width"],
                dom["height"],
                disc["nx"],
                disc["ny"],
                disc.get("b", 0.0),
                disc.get("a"),
            )
        else:
            mesh = rect_grid(dom["width"], dom["height"], disc["nx"], disc["ny"])
        return refine_chain(mesh, int(disc.get("refine", 0)))[0]
    if kind == "polygon":
        return regular_polygon_mesh(int(dom["n"]), int(cfg.get("mesh", {}).get("refine", 0)))
    if kind == "mesh-file":
        return load_mesh(dom["path"])
    raise ValueError(f"unknown domain type {kind!r}")


def _beta_cells(result: BetaResult | None, k: int) -> list[str]:
    # a returned result is never flagged: the eigensolver raises on any
    # residual above its contract, and _betas turns that into None
    if result is None:
        return (
            ["failed", "0", "0", "nan", "nan", "nan"]
            + ["nan"] * k
            + ["nan", "1"]
        )
    sig = list(result.sigmas[:k]) + [float("nan")] * max(0, k - len(result.sigmas))
    return [
        result.config_hash,
        str(result.n_velocity),
        str(result.n_pressure),
        _g(result.max_diameter_velocity),
        _g(result.min_inradius_pressure),
        _g(result.beta),
        *[_g(s) for s in sig],
        _g(result.residual_max),
        "0",
    ]


def _beta_header(k: int) -> list[str]:
    return _BETA_COLS + [f"sigma_{j + 1}" for j in range(k)] + ["residual_max", "flagged"]


# the failures that a sweep point may have: a flagged row, not an aborted run
_POINT_FAILURES = (EigenSolverError, NotPositiveDefinite, DimensionZeroError)


def _betas(runs: list[list], k: int, jobs: int) -> list[list[BetaResult | None]]:
    """The results of each run of sweep points, in order, with runs mapped
    over `jobs` threads.

    A point is a PairConfig, or the MeshError raised while building one.
    The configs between two failed points are solved by one `compute_betas`
    call, so each starts from the previous one's eigenvectors where it may.
    A failed point gets None, and its reason goes to stderr.
    """

    def solve(run):
        out = []
        for failed, group in itertools.groupby(run, key=lambda p: isinstance(p, Exception)):
            points = list(group)
            for res in points if failed else compute_betas(points, k, failures=_POINT_FAILURES):
                if isinstance(res, Exception):
                    # one write per line, so that lines from --jobs threads do not interleave
                    sys.stderr.write(f"warning: sweep point failed: {type(res).__name__}: {res}\n")
                    res = None
                out.append(res)
        return out

    if jobs <= 1:
        return [solve(run) for run in runs]
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(solve, runs))


def _table(header: list[str], rows: list[list[str]]) -> tuple[str, list[dict]]:
    """CSV text of string cells, and its rows as the CSV reader reads them
    back: every plot and check works from what the CSV says."""
    text = "".join(",".join(row) + "\n" for row in [header, *rows])
    return text, list(csv.DictReader(io.StringIO(text)))


def _beta_table(
    lead_header: list[str],
    rows: list[tuple[list[str], BetaResult | None]],
    k: int,
) -> tuple[str, list[dict]]:
    """`_table` of (lead cells, result) pairs: the lead columns, then the
    beta columns of `_beta_header`."""
    return _table(
        lead_header + _beta_header(k),
        [lead + _beta_cells(result, k) for lead, result in rows],
    )


_MESH = operator.itemgetter("mesh")
_MESH_RULE = operator.itemgetter("mesh", "rule")


def _series(rows: list[dict], key, x: str, y, order=None) -> list:
    """One (label, xs, ys) series per group of rows with equal `key(row)`,
    rows in the order given: xs from column `x`, ys from column `y` or, if
    `y` is callable, y(row).  The labels are the keys listed in `order`,
    else the keys in order of first appearance."""
    groups = {}
    for r in rows:
        groups.setdefault(key(r), []).append(r)
    get = y if callable(y) else lambda r: float(r[y])
    return [(label, [float(r[x]) for r in groups.get(label, [])],
             [get(r) for r in groups.get(label, [])])
            for label in (groups if order is None else order)]


def _columns(rows: list[dict], x: str, columns: list[tuple[str, str]]) -> list:
    """One (label, xs, ys) series per (label, column) over column `x`."""
    xs = [float(r[x]) for r in rows]
    return [(label, xs, [float(r[column]) for r in rows]) for label, column in columns]


def _reference_line(rows: list[dict]) -> list:
    """The `beta_ref` column as a labelled reference line; line_plot drops
    it where it is not set (NaN)."""
    return [("reference", float(rows[0]["beta_ref"]))] if rows else []


def _ref_cell(beta_ref) -> str:
    return _g(beta_ref) if beta_ref is not None else "nan"


def _nonempty(key: str, values: list, convert, name=None, repeats=False) -> list:
    """A config's list of points under `key`, each passed through `convert`.
    A run over none is an error, and so, unless `repeats`, is a point listed
    twice; points compare by name(point), by default the point itself."""
    if not values:
        raise ValueError(f"config key {key!r} lists no points")
    points = [convert(v) for v in values]
    names = [point if name is None else name(point) for point in points]
    twice = [n for i, n in enumerate(names) if n in names[:i]]
    if twice and not repeats:
        raise ValueError(f"config key {key!r} lists {twice[0]} twice")
    return points


def _k(cfg: dict) -> int:
    """A config's count of eigenvalues to report: key `k`, at least 1."""
    k = int(cfg.get("k", 6))
    if k < 1:
        raise ValueError("config key 'k' must be at least 1")
    return k


def _max_beta(name: str, rows: list[dict], bound: float, text: str) -> CheckResult:
    """The largest beta of the unflagged rows must be at most `bound`;
    `text` formats the check's detail from that beta."""
    worst = _nan_max([float(r["beta"]) for r in rows if r["flagged"] == "0"])
    return CheckResult(name, worst <= bound, text.format(worst))


def _usc(rows: list[dict], cfg: dict, name="usc-all-rows", label="max beta") -> CheckResult:
    """Upper semicontinuity on every unflagged row: beta <= beta_ref + slack."""
    beta_ref = cfg["beta_ref"]
    slack = float(cfg.get("slack", 0.005))
    return _max_beta(name, rows, float(beta_ref) + slack,
                     f"{label}={{:.6g}} <= {beta_ref} + {slack}")


def _nan_max(values: list[float]) -> float:
    """Largest value; NaN if any value is NaN or there are none, so a check
    of it against a bound fails."""
    return float(np.max(values)) if values else float("nan")


def _doubling_ratios(name: str, rows: list[dict], column: str, window) -> CheckResult:
    """Ratio of `column` between consecutive rows whose n doubles must lie
    in `window`.  A pair whose lower-n value is NaN or not positive has no
    ratio: it counts as a failed one, NaN."""
    ns = [int(r["n"]) for r in rows]
    vals = {int(r["n"]): float(r[column]) for r in rows}
    ratios = [
        vals[b] / vals[a] if vals[a] > 0 else math.nan
        for a, b in zip(ns, ns[1:]) if b == 2 * a
    ]
    return CheckResult(
        name,
        bool(ratios) and all(window[0] <= rho <= window[1] for rho in ratios),
        "ratios " + ", ".join(f"{rho:.3f}" for rho in ratios),
    )


# ----------------------------------------------------------------------
# single beta / spectrum
# ----------------------------------------------------------------------

def _config_pair(cfg: dict, seed) -> tuple[PairConfig, int]:
    """The pairing and eigenvalue count of a `domain`/`mesh`/`elements` config."""
    k = _k(cfg)
    el = cfg["elements"]
    pc = _pair(
        _domain_mesh(cfg),
        el["velocity_degree"],
        el["pressure_degree"],
        _solver_options(cfg, seed),
    )
    return pc, k


def run_single_beta(cfg: dict, jobs: int = 1, seed=None) -> RunOutput:
    pc, k = _config_pair(cfg, seed)
    if cfg.get("mesh_out"):
        save_mesh(pc.velocity_mesh, cfg["mesh_out"])
    result = compute_beta(pc, k=k)
    if cfg.get("eigenfunction_out"):
        _write(cfg["eigenfunction_out"], _eigenfunction_csv(result))
    text, parsed = _beta_table([], [([], result)], k)
    checks = []
    if "beta_range" in cfg:
        lo, hi = cfg["beta_range"]
        checks.append(
            CheckResult(
                "beta-range",
                lo <= result.beta <= hi,
                f"beta={result.beta:.6g} in [{lo:.6g}, {hi:.6g}]",
            )
        )
    if "beta_ref" in cfg:
        checks.append(_usc(parsed, cfg, "usc", "beta"))
    return RunOutput(csv=text, checks=checks)


def _eigenfunction_csv(result: BetaResult) -> str:
    """The leading pressure eigenfunction, one row per (element, local
    node) slot that holds a dof, with the dof's point and coefficient."""
    element, node = np.nonzero(result.dof_p.element_dofs >= 0)
    dof = result.dof_p.element_dofs[element, node]
    ints = np.column_stack([element, node, dof]).tolist()
    reals = np.column_stack([result.dof_p.dof_points[dof], result.eigenfunction[dof]]).tolist()
    rows = [[*map(str, i), *map(_g, r)] for i, r in zip(ints, reals)]
    return _table(["element", "local_node", "global_dof", "x", "y", "coefficient"], rows)[0]


def run_spectrum(cfg: dict, jobs: int = 1, seed=None) -> RunOutput:
    pc, k = _config_pair(cfg, seed)
    result = compute_beta(pc, k=k)
    corners = [float(w) for w in cfg.get("corner_angles", [])]
    low, high = (analytic.cosserat_interval(corners[0]) if corners else (float("nan"),) * 2)
    header = ["config_hash", "j", "sigma", "cosserat_low", "cosserat_high",
              "residual_max", "flagged"]
    rows = [
        [result.config_hash, str(j + 1), _g(s), _g(low), _g(high),
         _g(result.residual_max), "0"]
        for j, s in enumerate(result.sigmas)
    ]
    text, parsed = _table(header, rows)
    svg = plot_spectrum(parsed)
    checks = [
        CheckResult(
            "sigma-bounds",
            bool((result.sigmas >= -1e-9).all() and (result.sigmas <= 1.0 + 1e-9).all()),
            f"{len(result.sigmas)} eigenvalues in [0, 1]",
        )
    ]
    extra = {}
    if corners:
        irows = [[_g(w), *map(_g, analytic.cosserat_interval(w))] for w in corners]
        extra["intervals"] = _table(["omega", "low", "high"], irows)[0]
    return RunOutput(csv=text, extra_csv=extra, svgs={"": svg}, checks=checks)


def plot_spectrum(rows: list[dict]) -> str:
    refs = [
        ("essential low", float(rows[0]["cosserat_low"])),
        ("essential high", float(rows[0]["cosserat_high"])),
    ] if rows else []
    return line_plot(
        _columns(rows, "j", [("sigma_j", "sigma")]),
        "eigenvalue index",
        "sigma",
        title="Schur spectrum",
        ref_lines=refs,
    )


# ----------------------------------------------------------------------
# Scott-Vogelius sweep over the special decentering a
# ----------------------------------------------------------------------

def run_sv_sweep(cfg: dict, jobs: int = 1, seed=None) -> RunOutput:
    solver = _solver_options(cfg, seed)
    width, height = float(cfg["width"]), float(cfg["height"])
    grids = _nonempty("grids", cfg["grids"], tuple)
    b = float(cfg.get("b", 0.4))
    # config errors, raised once; only an error that depends on a flags a row
    for nx, ny in grids:
        rect_grid(width, height, nx, ny)
    SvSplitParams(b=b)
    a0 = float(cfg.get("a_start", -0.49))
    a1 = float(cfg.get("a_stop", 0.49))
    da = float(cfg.get("a_step", 0.01))
    if da <= 0:
        raise ValueError("config key 'a_step' must be positive")
    # the tolerance keeps a stop that rounding puts just short of a step
    n_steps = math.floor((a1 - a0) / da + 1e-9)
    if n_steps < 0:
        raise ValueError("config key 'a_stop' lies below 'a_start': no points")
    a_values = [round(a0 + i * da, 12) for i in range(n_steps + 1)]
    k = _k(cfg)
    vdeg, pdeg = int(cfg.get("velocity_degree", 4)), int(cfg.get("pressure_degree", 3))
    beta_ref = cfg.get("beta_ref")

    def point(nx, ny, a):
        try:
            return _pair(sv_mesh(width, height, nx, ny, b, a), vdeg, pdeg, solver)
        except MeshError as exc:
            return exc

    # one run per grid: its points share everything but the special quad
    runs = [[point(nx, ny, a) for a in a_values] for nx, ny in grids]
    text, parsed = _beta_table(
        ["mesh", "a", "beta_ref"],
        [([f"{nx}x{ny}", _g(a), _ref_cell(beta_ref)], res)
         for (nx, ny), results in zip(grids, _betas(runs, k, jobs))
         for a, res in zip(a_values, results)],
        k,
    )
    svgs = {
        "": plot_sv_sweep(parsed),
        "diff_fine": plot_sv_sweep_diff_fine(parsed, _ZERO_BETA_MAX),
    }
    if beta_ref is not None:
        svgs["diff_ref"] = plot_sv_sweep_diff_ref(parsed)

    # least-squares slope of beta(a) through the origin on a small window
    w0, w1 = cfg.get("slope_window", [0.02, 0.10])
    slope_rows = []
    for label, aa, bb in _series(parsed, _MESH, "a", "beta",
                                 order=[f"{nx}x{ny}" for nx, ny in grids]):
        window = [w0 - 1e-12 <= a <= w1 + 1e-12 for a in aa]
        if not any(window):
            continue
        aa, bb = np.array(aa)[window], np.array(bb)[window]
        slope = float(aa @ bb / (aa @ aa))
        fit = slope * aa
        rel = float(np.linalg.norm(bb - fit) / np.linalg.norm(fit))
        slope_rows.append([label, _g(w0), _g(w1), _g(slope), _g(rel)])
    extra = {
        "slopes": _table(["mesh", "a_min", "a_max", "slope", "relative_residual"], slope_rows)[0]
    }

    checks = [_usc(parsed, cfg)] if beta_ref is not None else []
    if any(abs(a) < 1e-12 for a in a_values):
        at_zero = [r for r in parsed if abs(float(r["a"])) < 1e-12]
        checks.append(_max_beta("singular-point", at_zero, _ZERO_BETA_MAX,
                                f"beta(a=0) max={{:.3g}} <= {_ZERO_BETA_MAX:g}"))
    if slope_rows:
        rel_max = _nan_max([float(r[4]) for r in slope_rows])
        checks.append(
            CheckResult(
                "linear-near-zero",
                rel_max < _SLOPE_REL_TOL,
                f"max relative residual {rel_max:.3g} < {_SLOPE_REL_TOL}",
            )
        )
    return RunOutput(csv=text, extra_csv=extra, svgs=svgs, checks=checks)


def plot_sv_sweep(rows: list[dict]) -> str:
    return line_plot(_series(rows, _MESH, "a", "beta"), "a", "beta_n(a)",
                     title="inf-sup constant vs decentering", ref_lines=_reference_line(rows))


def plot_sv_sweep_diff_fine(rows: list[dict], zero_max: float) -> str:
    """Relative distance of each coarser mesh's beta to the finest mesh's.

    Points whose finest-mesh beta is at most `zero_max` (the singular-point
    threshold) are left out: there both betas are roundoff, and their ratio
    would set the autoscaled axis.
    """
    sizes = _series(rows, _MESH, "a", "n_velocity")
    finest = max(sizes, key=lambda s: max(s[2]))[0]
    fine = {r["a"]: float(r["beta"]) for r in rows if r["mesh"] == finest}

    def relative(r):
        bf = fine[r["a"]]
        return (bf - float(r["beta"])) / bf if bf > zero_max else float("nan")

    series = _series([r for r in rows if r["a"] in fine], _MESH, "a", relative,
                     order=[label for label, _, _ in sizes if label != finest])
    return line_plot(series, "a", "log10 relative difference to finest mesh",
                     title="mesh convergence", log_y=True)


def plot_sv_sweep_diff_ref(rows: list[dict]) -> str:
    series = _series(rows, _MESH, "a", lambda r: float(r["beta_ref"]) - float(r["beta"]))
    return line_plot(series, "a", "log10 difference to reference",
                     title="distance to the continuous value", log_y=True)


# ----------------------------------------------------------------------
# p-version sweep
# ----------------------------------------------------------------------

# p-sweep degree rules: kind -> (label template over the rule's fields,
# pressure degree at velocity degree n)
_DEGREE_RULES = {
    "offset": ("k=n-{d}", lambda rule, n: n - int(rule["d"])),
    "half": ("k=ceil(n/2)", lambda rule, n: (n + 1) // 2),
    "sqrt": ("k=ceil({coefficient}*sqrt(n))",
             lambda rule, n: math.ceil(float(rule["coefficient"]) * math.sqrt(n))),
    "fixed": ("k={k}", lambda rule, n: int(rule["k"])),
}


def _degree_rule(rule: dict):
    """A degree rule's label and its pressure degree as a function of n."""
    kind = rule["type"]
    if kind not in _DEGREE_RULES:
        raise ValueError(f"unknown degree rule {kind!r}")
    label, degree = _DEGREE_RULES[kind]
    fields = {"coefficient": 1.0, **rule}
    return label.format(**fields), functools.partial(degree, fields)


def run_p_sweep(cfg: dict, jobs: int = 1, seed=None) -> RunOutput:
    solver = _solver_options(cfg, seed)
    width, height = float(cfg["width"]), float(cfg["height"])
    grids = _nonempty("grids", cfg["grids"], tuple)
    n_values = _nonempty("n_values", cfg["n_values"], int)
    # two rules with one label would give one label two series
    rules = _nonempty("k_rules", cfg["k_rules"], _degree_rule, name=lambda rule: rule[0])
    k = _k(cfg)
    beta_ref = cfg.get("beta_ref")

    # a point with a negative pressure degree has no row
    points = [
        ((nx, ny), label, n, degree(n))
        for nx, ny in grids for label, degree in rules for n in n_values
        if n >= 1 and degree(n) >= 0
    ]
    runs = [[_pair(rect_grid(width, height, nx, ny), n, kdeg, solver)]
            for (nx, ny), _, n, kdeg in points]
    text, parsed = _beta_table(
        ["mesh", "rule", "n", "pressure_degree", "beta_ref"],
        [
            ([f"{nx}x{ny}", label, str(n), str(kdeg), _ref_cell(beta_ref)], res)
            for ((nx, ny), label, n, kdeg), (res,) in zip(points, _betas(runs, k, jobs))
        ],
        k,
    )
    svgs = {"": plot_p_sweep(parsed)}
    checks = []
    # opt-in: full p-sweeps include tiny pressure spaces whose beta may
    # legitimately exceed the continuous reference
    if beta_ref is not None and cfg.get("check_usc", False):
        checks.append(_usc(parsed, cfg))
    if "converge_tol" in cfg and beta_ref is not None:
        tol = float(cfg["converge_tol"])
        # each (mesh, rule) pair's errors over n; a failed point stays, and
        # its NaN beta fails both tests below, as does a pair without rows
        errs = _series(
            sorted(parsed, key=lambda r: int(r["n"])), _MESH_RULE, "n",
            lambda r: abs(float(r["beta"]) - float(beta_ref)),
            order=[(f"{nx}x{ny}", label) for nx, ny in grids for label, _ in rules],
        )
        ok = all(e and all(e2 <= e1 + 1e-9 for e1, e2 in zip(e, e[1:])) and e[-1] < tol
                 for _, _, e in errs)
        detail = "; ".join(f"{lbl}: final err {e[-1]:.4g}" for lbl, _, e in errs if e)
        checks.append(CheckResult("p-convergence", ok, detail))
    return RunOutput(csv=text, svgs=svgs, checks=checks)


def plot_p_sweep(rows: list[dict]) -> str:
    # one series per (mesh, rule) pair, in order of first appearance and of n
    series = _series(sorted(rows, key=lambda r: int(r["n"])), _MESH_RULE, "n", "beta",
                     order=list(dict.fromkeys(map(_MESH_RULE, rows))))
    series = [(f"{mesh} {rule}", xs, ys) for (mesh, rule), xs, ys in series]
    return line_plot(series, "velocity degree n", "beta_n",
                     title="p-version inf-sup constants", ref_lines=_reference_line(rows))


# ----------------------------------------------------------------------
# h-refinement (nested velocity/pressure meshes)
# ----------------------------------------------------------------------

def run_h_refinement(cfg: dict, jobs: int = 1, seed=None) -> RunOutput:
    solver = _solver_options(cfg, seed)
    width, height = float(cfg["width"]), float(cfg["height"])
    vdeg, pdeg = int(cfg.get("velocity_degree", 2)), int(cfg.get("pressure_degree", 0))
    # in growing mode a grid repeated at a greater depth is a new point
    grids = _nonempty("pressure_grids", cfg["pressure_grids"], tuple, repeats=True)
    rule = cfg.get("refine_velocity", {"mode": "fixed", "r": 1})
    if rule["mode"] not in ("fixed", "growing"):
        raise ValueError(f"unknown refine_velocity mode {rule['mode']!r}")
    k = _k(cfg)
    beta_ref = cfg.get("beta_ref")

    def depth(i: int) -> int:
        if rule["mode"] == "fixed":
            return int(rule["r"])
        return int(rule.get("start", 1)) + i * int(rule.get("step", 1))

    def point(i, nx, ny):
        pmesh = rect_grid(width, height, nx, ny)
        vmesh, pm = refine_chain(pmesh, depth(i))
        return _pair(vmesh, vdeg, pdeg, solver,
                     pressure_mesh=pmesh if pm is not None else None, parent_map=pm)

    runs = [[point(i, nx, ny)] for i, (nx, ny) in enumerate(grids)]
    rows = []
    for i, ((nx, ny), [pc], [res]) in enumerate(zip(grids, runs, _betas(runs, k, jobs))):
        if res is not None:
            hx, hm = res.max_diameter_velocity, res.min_inradius_pressure
        else:  # a failed point's sizes, from its meshes
            hx, hm = element_sizes(pc.velocity_mesh, pc.pressure_mesh)
        lead = [f"{nx}x{ny}", str(depth(i)), _g(hx), _g(hm), _g(hx / hm), _ref_cell(beta_ref)]
        rows.append((lead, res))
    text, parsed = _beta_table(
        ["mesh", "refine_depth", "h_velocity", "h_pressure", "ratio", "beta_ref"], rows, k
    )
    return RunOutput(csv=text, svgs={"": plot_h_refinement(parsed)})


def plot_h_refinement(rows: list[dict]) -> str:
    return line_plot(
        _columns(rows, "ratio", [("beta_n", "beta")]),
        "mesh-size ratio h_velocity / h_pressure",
        "beta_n",
        title="h-refinement with nested meshes",
        ref_lines=_reference_line(rows),
    )


# ----------------------------------------------------------------------
# polygon-to-disk limit
# ----------------------------------------------------------------------

def run_polygon_limit(cfg: dict, jobs: int = 1, seed=None) -> RunOutput:
    solver = _solver_options(cfg, seed)
    n_values = _nonempty("n_values", cfg.get("n_values", [8, 16, 32, 64]), int)
    refine = int(cfg.get("refine", 1))
    vdeg, pdeg = int(cfg.get("velocity_degree", 4)), int(cfg.get("pressure_degree", 3))
    k = _k(cfg)
    eps_grid = int(cfg.get("eps_grid", 512))

    runs = [[_pair(regular_polygon_mesh(n, refine), vdeg, pdeg, solver)] for n in n_values]
    results = _betas(runs, k, jobs)
    ests = [perturb.polygon_disk_eps(n, grid_density=eps_grid) for n in n_values]
    disk = analytic.beta_disk().value
    rows = []
    for n, [res], est in zip(n_values, results, ests):
        low, up = analytic.polygon_bounds(n)
        gap = disk - res.beta if res is not None else float("nan")
        lead = [
            str(n),
            _g(low.value),
            _g(up.value),
            _g(analytic.polygon_gap_bound(n)),
            _g(gap),
            _g(est.eps_forward),
            _g(est.eps_inverse),
            _g(est.jacobian_deviation),
        ]
        rows.append((lead, res))
    text, parsed = _beta_table(
        ["n", "lower_bound", "upper_bound", "gap_bound", "gap", "eps_forward",
         "eps_inverse", "jacobian_deviation"],
        rows,
        k,
    )
    ok_bounds = all(
        r["flagged"] == "0" and float(r["lower_bound"]) - 0.01 <= float(r["beta"]) <= disk + 0.005
        for r in parsed
    )
    checks = [
        CheckResult("two-sided-bounds", ok_bounds, f"{len(parsed)} polygon sizes"),
        _doubling_ratios("gap-contraction", parsed, "gap", (0.3, 0.7)),
        _doubling_ratios("eps-contraction", parsed, "eps_forward", _EPS_RATIOS),
    ]
    return RunOutput(csv=text, svgs={"": plot_polygon_limit(parsed)}, checks=checks)


def plot_polygon_limit(rows: list[dict]) -> str:
    series = _columns(rows, "n", [("beta_n", "beta"), ("lower bound", "lower_bound"),
                                  ("upper bound", "upper_bound")])
    return line_plot(series, "polygon edges n", "beta",
                     title="inscribed polygons approaching the disk")


# ----------------------------------------------------------------------
# perturbation rate
# ----------------------------------------------------------------------

def run_perturb_rate(cfg: dict, jobs: int = 1, seed=None) -> RunOutput:
    n_values = _nonempty("n_values", cfg.get("n_values", [8, 16, 32, 64]), int)
    grid = int(cfg.get("grid_density", 512))
    ests = [perturb.polygon_disk_eps(n, grid_density=grid) for n in n_values]
    chash = _cfg_hash(cfg)
    # estimate attributes written as columns, in order
    cols = ["eps_forward", "eps_inverse", "eps", "jacobian_deviation", "neumann_inverse_bound"]
    rows = []
    for n, est in zip(n_values, ests):
        bound_ok = est.jacobian_deviation <= 2 * est.eps_forward + est.eps_forward**2 + 1e-12
        cells = [_g(getattr(est, c)) for c in cols]
        rows.append([chash, str(n), *cells, str(int(bound_ok)), str(est.sample_count)])
    header = ["config_hash", "n", *cols, "jacobian_bound_ok", "sample_count"]
    text, parsed = _table(header, rows)
    checks = [
        _doubling_ratios("eps-halving", parsed, "eps_forward", _EPS_RATIOS),
        CheckResult(
            "jacobian-bound",
            all(r["jacobian_bound_ok"] == "1" for r in parsed),
            "sup|1-J| <= 2*eps + eps^2 on every map",
        ),
    ]
    return RunOutput(csv=text, svgs={"": plot_perturb_rate(parsed)}, checks=checks)


def plot_perturb_rate(rows: list[dict]) -> str:
    series = _columns(rows, "n", [("eps forward", "eps_forward"), ("eps inverse", "eps_inverse"),
                                  ("|1 - J|", "jacobian_deviation")])
    return line_plot(series, "polygon edges n", "log10 closeness",
                     title="Lipschitz closeness of the polygon maps", log_y=True)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

_RUNNERS = {
    "single-beta": run_single_beta,
    "sv-sweep": run_sv_sweep,
    "p-sweep": run_p_sweep,
    "h-refinement": run_h_refinement,
    "polygon-limit": run_polygon_limit,
    "perturb-rate": run_perturb_rate,
    "spectrum": run_spectrum,
}

_COMMAND_KINDS = {
    "beta": {"single-beta"},
    "sweep": {"sv-sweep", "p-sweep", "h-refinement"},
    "spectrum": {"spectrum"},
    "polygon": {"polygon-limit"},
    "perturb": {"perturb-rate"},
}


class _ReadLog(dict):
    """A config that records the keys read from it with `get` or `[]`."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(text)


def _write_outputs(prefix: str, out: RunOutput) -> None:
    _write(f"{prefix}.csv", out.csv)
    for suffix, text in sorted(out.extra_csv.items()):
        _write(f"{prefix}_{suffix}.csv", text)
    for suffix, text in sorted(out.svgs.items()):
        _write(f"{prefix}.svg" if suffix == "" else f"{prefix}_{suffix}.svg", text)


# glibc mallopt parameters (malloc.h) and the values main pins them to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 8 << 20
_TRIM_THRESHOLD_BYTES = 16 << 20


@functools.cache
def _pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds for the rest of the process.

    By default glibc raises the mmap threshold to the size of every mapped
    block that is freed, up to 32 MiB, and the trim threshold to twice
    that.  After one large point, the next point's SuperLU workspaces then
    land on the heap, and whether the heap shrinks back between points
    depends on which small block sits at its top: a sweep's peak memory
    moved by 20 MB from one run to the next.  Pinned, blocks of 8 MiB and
    more always get their own mapping and go back to the OS when freed, and
    at most 16 MiB of free heap stays resident.  Returns whether the C
    library took both settings; False where there is no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)) and bool(
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    )


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    parser = argparse.ArgumentParser(prog="lbblab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMAND_KINDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output path prefix")
        p.add_argument("--seed", type=int, default=None, help="override the solver seed")
        p.add_argument("--check", action="store_true", help="fail (exit 2) on failed checks")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker threads for sweep points (sv-sweep: for its grids)")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as f:
            cfg = _ReadLog(json.load(f))
        kind = cfg.get("kind")
        if kind not in _COMMAND_KINDS[args.command]:
            raise ValueError(
                f"config kind {kind!r} not valid for subcommand {args.command!r}"
            )
        out_key = cfg.get("out")  # read even where --out overrides it
        prefix = args.out or out_key or kind
        out = _RUNNERS[kind](cfg, jobs=max(1, args.jobs), seed=args.seed)
        _write_outputs(prefix, out)
    except Exception as exc:  # computation failure -> exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # a misspelled or misplaced key would otherwise be dropped without a word
    for key in cfg:
        if key not in cfg.read:
            sys.stderr.write(f"warning: config key {key!r} is not read by {kind}\n")
    for check in out.checks:
        print(check.line())
    if args.check and any(not c.passed for c in out.checks):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
