"""Experiment runner: JSON configs in, deterministic CSV tables and SVG plots out.

Subcommands `beta`, `sweep`, `spectrum`, `polygon`, `perturb` each take
--config <file> plus overriding --out and --seed.  Exit codes: 0 all good,
1 computation error, 2 a declared check failed under --check.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import io
import json
import math
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
    eigenfunction_export,
)
from .spectral import EigenSolverError, NotPositiveDefinite, SolverOptions
from .svgplot import line_plot

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
    centroids = grid.points[grid.quads].mean(axis=1)
    return int(np.argmin(np.linalg.norm(centroids - center, axis=1)))


def sv_mesh(
    width: float,
    height: float,
    nx: int,
    ny: int,
    b: float,
    a: float | None = None,
    special_quad: int | None = None,
) -> Mesh:
    """Rectangle quad grid split into four triangles per quad; the special
    quad (default: nearest the domain center) gets decentering `a`."""
    grid = rect_grid(width, height, nx, ny)
    if a is None:
        params = SvSplitParams(b=b)
    else:
        idx = special_quad if special_quad is not None else _center_quad(grid)
        params = SvSplitParams(b=b, special=(idx, a))
    return sv_split(grid, params)


def _pair(
    mesh: Mesh,
    velocity_degree: int,
    pressure_degree: int,
    solver: SolverOptions,
    pressure_continuity: str = "dc",
    **kwargs,
) -> PairConfig:
    """C0 zero-trace velocities against pressures of the mesh's element family."""
    family = Family.QUAD if mesh.is_quad else Family.TRIANGLE
    vel = ElementSpace(family, int(velocity_degree), Continuity.C0, BoundaryCondition.ZERO_TRACE)
    pcont = Continuity(pressure_continuity)
    pre = ElementSpace(family, int(pressure_degree), pcont, BoundaryCondition.NONE)
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
                disc.get("special_quad"),
            )
        else:
            mesh = rect_grid(dom["width"], dom["height"], disc["nx"], disc["ny"])
        for _ in range(int(disc.get("refine", 0))):
            mesh, _pm = refine_chain(mesh, 1)
        return mesh
    if kind == "polygon":
        return regular_polygon_mesh(int(dom["n"]), int(cfg.get("mesh", {}).get("refine", 0)))
    if kind == "mesh-file":
        return load_mesh(dom["path"])
    raise ValueError(f"unknown domain type {kind!r}")


def _beta_cells(result: BetaResult | None, k: int) -> list[str]:
    # a returned result is never flagged: the eigensolver raises on any
    # residual above residual_tol, and _safe_beta turns that into None
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


def _point_failed(exc: Exception) -> None:
    """A failed sweep point: its reason goes to stderr, its row is flagged."""
    # one write per line, so that lines from --jobs threads do not interleave
    sys.stderr.write(f"warning: sweep point failed: {type(exc).__name__}: {exc}\n")


# the failures that a sweep point may have: a flagged row, not an aborted run
_POINT_FAILURES = (EigenSolverError, NotPositiveDefinite, DimensionZeroError)


def _safe_beta(config: PairConfig, k: int) -> BetaResult | None:
    """compute_beta, with a point failure mapped to None.

    A lone point goes through `compute_beta` rather than `_safe_betas`:
    that call is the per-point boundary perfbench/tracing.py spans.
    """
    try:
        return compute_beta(config, k=k)
    except _POINT_FAILURES as exc:
        _point_failed(exc)
        return None


def _safe_betas(configs: list[PairConfig], k: int) -> list[BetaResult | None]:
    """compute_betas (chained points), with each point failure mapped to None."""
    out = []
    for res in compute_betas(configs, k, failures=_POINT_FAILURES):
        if isinstance(res, Exception):
            _point_failed(res)
            res = None
        out.append(res)
    return out


def _parallel(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items))


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _beta_table(
    lead_header: list[str],
    rows: list[tuple[list[str], BetaResult | None]],
    k: int,
) -> tuple[str, list[dict]]:
    """CSV text and parsed rows of (lead cells, result) pairs: the lead
    columns, then the beta columns of `_beta_header`."""
    text = _csv_text(
        lead_header + _beta_header(k),
        [lead + _beta_cells(result, k) for lead, result in rows],
    )
    return text, _parse_csv(text)


def _ref_cell(beta_ref) -> str:
    return _g(beta_ref) if beta_ref is not None else "nan"


def _usc_all_rows(rows: list[dict], cfg: dict) -> CheckResult:
    """Upper semicontinuity on every unflagged row: beta <= beta_ref + slack."""
    beta_ref = cfg["beta_ref"]
    slack = float(cfg.get("slack", 0.005))
    betas = [float(r["beta"]) for r in rows if r["flagged"] == "0"]
    worst = max(betas) if betas else float("nan")
    return CheckResult(
        "usc-all-rows",
        bool(betas) and worst <= float(beta_ref) + slack,
        f"max beta={worst:.6g} <= {beta_ref} + {slack}",
    )


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
    el = cfg["elements"]
    pc = _pair(
        _domain_mesh(cfg),
        el["velocity_degree"],
        el["pressure_degree"],
        _solver_options(cfg, seed),
        el.get("pressure_continuity", "dc"),
        deflate_constants=bool(cfg.get("deflate_constants", True)),
    )
    return pc, int(cfg.get("k", 6))


def run_single_beta(cfg: dict, jobs: int = 1, seed=None) -> RunOutput:
    pc, k = _config_pair(cfg, seed)
    if cfg.get("mesh_out"):
        save_mesh(pc.velocity_mesh, cfg["mesh_out"])
    result = compute_beta(pc, k=k)
    if cfg.get("eigenfunction_out"):
        eigenfunction_export(result, cfg["eigenfunction_out"])
    text, _ = _beta_table([], [([], result)], k)
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
        slack = float(cfg.get("slack", 0.005))
        checks.append(
            CheckResult(
                "usc",
                result.beta <= float(cfg["beta_ref"]) + slack,
                f"beta={result.beta:.6g} <= {cfg['beta_ref']} + {slack}",
            )
        )
    return RunOutput(csv=text, checks=checks)


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
    text = _csv_text(header, rows)
    svg = plot_spectrum(_parse_csv(text))
    checks = [
        CheckResult(
            "sigma-bounds",
            bool((result.sigmas >= -1e-9).all() and (result.sigmas <= 1.0 + 1e-9).all()),
            f"{len(result.sigmas)} eigenvalues in [0, 1]",
        )
    ]
    extra = {}
    if corners:
        irows = [
            [_g(w), _g(analytic.cosserat_interval(w)[0]), _g(analytic.cosserat_interval(w)[1])]
            for w in corners
        ]
        extra["intervals"] = _csv_text(["omega", "low", "high"], irows)
    return RunOutput(csv=text, extra_csv=extra, svgs={"": svg}, checks=checks)


def plot_spectrum(rows: list[dict]) -> str:
    xs = [float(r["j"]) for r in rows]
    ys = [float(r["sigma"]) for r in rows]
    refs = []
    if rows and not math.isnan(float(rows[0]["cosserat_low"])):
        refs = [
            ("essential low", float(rows[0]["cosserat_low"])),
            ("essential high", float(rows[0]["cosserat_high"])),
        ]
    return line_plot(
        [("sigma_j", xs, ys)],
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
    grids = [tuple(g) for g in cfg["grids"]]
    b = float(cfg.get("b", 0.4))
    a0 = float(cfg.get("a_start", -0.49))
    a1 = float(cfg.get("a_stop", 0.49))
    da = float(cfg.get("a_step", 0.01))
    n_steps = int(round((a1 - a0) / da))
    a_values = [round(a0 + i * da, 12) for i in range(n_steps + 1)]
    k = int(cfg.get("k", 6))
    special = cfg.get("special_quad")
    vdeg, pdeg = int(cfg.get("velocity_degree", 4)), int(cfg.get("pressure_degree", 3))
    beta_ref = cfg.get("beta_ref")

    points = [(g, a) for g in grids for a in a_values]

    def work(grid):
        # one chain per grid: its points share everything but the special quad
        nx, ny = grid
        results, chain = [], []
        for a in a_values:
            try:
                mesh = sv_mesh(width, height, nx, ny, b, a, special)
            except MeshError as exc:
                results += _safe_betas(chain, k)
                chain = []
                _point_failed(exc)
                results.append(None)
                continue
            chain.append(_pair(mesh, vdeg, pdeg, solver))
        return results + _safe_betas(chain, k)

    results = [res for rows in _parallel(work, grids, jobs) for res in rows]
    text, parsed = _beta_table(
        ["mesh", "a", "beta_ref"],
        [([f"{nx}x{ny}", _g(a), _ref_cell(beta_ref)], res)
         for ((nx, ny), a), res in zip(points, results)],
        k,
    )
    zero_max = float(cfg.get("zero_beta_max", 1e-6))
    svgs = {
        "": plot_sv_sweep(parsed),
        "diff_fine": plot_sv_sweep_diff_fine(parsed, zero_max),
    }
    if beta_ref is not None:
        svgs["diff_ref"] = plot_sv_sweep_diff_ref(parsed)

    # least-squares slope of beta(a) through the origin on a small window
    w0, w1 = cfg.get("slope_window", [0.02, 0.10])
    slope_rows = []
    for nx, ny in grids:
        label = f"{nx}x{ny}"
        pts = [
            (float(r["a"]), float(r["beta"]))
            for r in parsed
            if r["mesh"] == label and w0 - 1e-12 <= float(r["a"]) <= w1 + 1e-12
        ]
        if not pts:
            continue
        aa = np.array([p[0] for p in pts])
        bb = np.array([p[1] for p in pts])
        slope = float(aa @ bb / (aa @ aa))
        fit = slope * aa
        rel = float(np.linalg.norm(bb - fit) / np.linalg.norm(fit))
        slope_rows.append([label, _g(w0), _g(w1), _g(slope), _g(rel)])
    extra = {
        "slopes": _csv_text(["mesh", "a_min", "a_max", "slope", "relative_residual"], slope_rows)
    }

    checks = [_usc_all_rows(parsed, cfg)] if beta_ref is not None else []
    if any(abs(a) < 1e-12 for a in a_values):
        z = [
            float(r["beta"])
            for r in parsed
            if abs(float(r["a"])) < 1e-12 and r["flagged"] == "0"
        ]
        checks.append(
            CheckResult(
                "singular-point",
                bool(z) and max(z) <= zero_max,
                f"beta(a=0) max={max(z) if z else float('nan'):.3g} <= {zero_max:g}",
            )
        )
    if slope_rows:
        rel_max = float(np.max([float(r[4]) for r in slope_rows]))  # NaN if any is NaN
        checks.append(
            CheckResult(
                "linear-near-zero",
                rel_max < float(cfg.get("slope_rel_tol", 0.2)),
                f"max relative residual {rel_max:.3g} < {cfg.get('slope_rel_tol', 0.2)}",
            )
        )
    return RunOutput(csv=text, extra_csv=extra, svgs=svgs, checks=checks)


def _series_by_mesh(rows: list[dict]):
    order = []
    for r in rows:
        if r["mesh"] not in order:
            order.append(r["mesh"])
    return order


def _series_over_a(rows: list[dict], y) -> list:
    """One (mesh label, a values, y(row) values) series per mesh."""
    series = []
    for label in _series_by_mesh(rows):
        sub = [r for r in rows if r["mesh"] == label]
        series.append((label, [float(r["a"]) for r in sub], [y(r) for r in sub]))
    return series


def _reference_line(rows: list[dict]) -> list:
    """The `beta_ref` column as a labelled reference line, if it is set."""
    ref = float(rows[0]["beta_ref"]) if rows else float("nan")
    return [] if math.isnan(ref) else [("reference", ref)]


def plot_sv_sweep(rows: list[dict]) -> str:
    return line_plot(_series_over_a(rows, lambda r: float(r["beta"])), "a", "beta_n(a)",
                     title="inf-sup constant vs decentering", ref_lines=_reference_line(rows))


def plot_sv_sweep_diff_fine(rows: list[dict], zero_max: float) -> str:
    """Relative distance of each coarser mesh's beta to the finest mesh's.

    Points whose finest-mesh beta is at most `zero_max` (the singular-point
    threshold) are left out: there both betas are roundoff, and their ratio
    would set the autoscaled axis.
    """
    labels = _series_by_mesh(rows)
    finest = max(labels, key=lambda lab: max(
        int(r["n_velocity"]) for r in rows if r["mesh"] == lab))
    fine = {r["a"]: float(r["beta"]) for r in rows if r["mesh"] == finest}
    series = []
    for label in labels:
        if label == finest:
            continue
        sub = [r for r in rows if r["mesh"] == label and r["a"] in fine]
        xs = [float(r["a"]) for r in sub]
        ys = []
        for r in sub:
            bf = fine[r["a"]]
            d = (bf - float(r["beta"])) / bf if bf > zero_max else float("nan")
            ys.append(d)
        series.append((label, xs, ys))
    return line_plot(series, "a", "log10 relative difference to finest mesh",
                     title="mesh convergence", log_y=True)


def plot_sv_sweep_diff_ref(rows: list[dict]) -> str:
    series = _series_over_a(rows, lambda r: float(r["beta_ref"]) - float(r["beta"]))
    return line_plot(series, "a", "log10 difference to reference",
                     title="distance to the continuous value", log_y=True)


# ----------------------------------------------------------------------
# p-version sweep
# ----------------------------------------------------------------------

def _pressure_degree(rule: dict, n: int) -> int | None:
    kind = rule["type"]
    if kind == "offset":
        k = n - int(rule["d"])
    elif kind == "half":
        k = (n + 1) // 2
    elif kind == "sqrt":
        k = math.ceil(float(rule.get("coefficient", 1.0)) * math.sqrt(n))
    elif kind == "fixed":
        k = int(rule["k"])
    else:
        raise ValueError(f"unknown degree rule {kind!r}")
    return k if k >= 0 else None


def _rule_label(rule: dict) -> str:
    kind = rule["type"]
    if kind == "offset":
        return f"k=n-{rule['d']}"
    if kind == "half":
        return "k=ceil(n/2)"
    if kind == "sqrt":
        return f"k=ceil({rule.get('coefficient', 1.0)}*sqrt(n))"
    return f"k={rule['k']}"


def run_p_sweep(cfg: dict, jobs: int = 1, seed=None) -> RunOutput:
    solver = _solver_options(cfg, seed)
    width, height = float(cfg["width"]), float(cfg["height"])
    grids = [tuple(g) for g in cfg["grids"]]
    n_values = [int(n) for n in cfg["n_values"]]
    rules = cfg.get("k_rules") or [cfg["k_rule"]]
    k = int(cfg.get("k", 6))
    beta_ref = cfg.get("beta_ref")

    points = [
        (g, rule, n) for g in grids for rule in rules for n in n_values
    ]

    def work(item):
        (nx, ny), rule, n = item
        kdeg = _pressure_degree(rule, n)
        if kdeg is None or n < 1:
            return None, None
        return kdeg, _safe_beta(_pair(rect_grid(width, height, nx, ny), n, kdeg, solver), k)

    results = _parallel(work, points, jobs)
    text, parsed = _beta_table(
        ["mesh", "rule", "n", "pressure_degree", "beta_ref"],
        [
            ([f"{nx}x{ny}", _rule_label(rule), str(n), str(kdeg), _ref_cell(beta_ref)], res)
            for ((nx, ny), rule, n), (kdeg, res) in zip(points, results)
            if kdeg is not None
        ],
        k,
    )
    svgs = {"": plot_p_sweep(parsed)}
    checks = []
    # opt-in: full p-sweeps include tiny pressure spaces whose beta may
    # legitimately exceed the continuous reference
    if beta_ref is not None and cfg.get("check_usc", False):
        checks.append(_usc_all_rows(parsed, cfg))
    if "converge_tol" in cfg and beta_ref is not None:
        tol = float(cfg["converge_tol"])
        ok = True
        detail = []
        for (nx, ny) in grids:
            for rule in rules:
                lbl = (f"{nx}x{ny}", _rule_label(rule))
                sub = [r for r in parsed if (r["mesh"], r["rule"]) == lbl and r["flagged"] == "0"]
                sub.sort(key=lambda r: int(r["n"]))
                if not sub:
                    ok = False
                    continue
                errs = [abs(float(r["beta"]) - float(beta_ref)) for r in sub]
                mono = all(e2 <= e1 + 1e-9 for e1, e2 in zip(errs, errs[1:]))
                ok = ok and mono and errs[-1] < tol
                detail.append(f"{lbl}: final err {errs[-1]:.4g}")
        checks.append(CheckResult("p-convergence", ok, "; ".join(detail)))
    return RunOutput(csv=text, svgs=svgs, checks=checks)


def plot_p_sweep(rows: list[dict]) -> str:
    combos = []
    for r in rows:
        key = (r["mesh"], r["rule"])
        if key not in combos:
            combos.append(key)
    series = []
    for mesh_label, rule in combos:
        sub = [r for r in rows if (r["mesh"], r["rule"]) == (mesh_label, rule)]
        sub.sort(key=lambda r: int(r["n"]))
        series.append(
            (
                f"{mesh_label} {rule}",
                [float(r["n"]) for r in sub],
                [float(r["beta"]) for r in sub],
            )
        )
    return line_plot(series, "velocity degree n", "beta_n",
                     title="p-version inf-sup constants", ref_lines=_reference_line(rows))


# ----------------------------------------------------------------------
# h-refinement (nested velocity/pressure meshes)
# ----------------------------------------------------------------------

def run_h_refinement(cfg: dict, jobs: int = 1, seed=None) -> RunOutput:
    solver = _solver_options(cfg, seed)
    width, height = float(cfg["width"]), float(cfg["height"])
    family = cfg.get("family", "quad")
    vdeg, pdeg = int(cfg.get("velocity_degree", 2)), int(cfg.get("pressure_degree", 0))
    pcont = cfg.get("pressure_continuity", "dc")
    grids = [tuple(g) for g in cfg["pressure_grids"]]
    rule = cfg.get("refine_velocity", {"mode": "fixed", "r": 1})
    k = int(cfg.get("k", 6))
    beta_ref = cfg.get("beta_ref")

    def depth(i: int) -> int:
        if rule["mode"] == "fixed":
            return int(rule["r"])
        return int(rule.get("start", 1)) + i * int(rule.get("step", 1))

    def work(item):
        i, (nx, ny) = item
        if family == "quad":
            pmesh = rect_grid(width, height, nx, ny)
        else:
            pmesh = sv_mesh(width, height, nx, ny, float(cfg.get("b", 0.25)))
        r = depth(i)
        vmesh, pm = refine_chain(pmesh, r)
        pc = _pair(vmesh, vdeg, pdeg, solver, pcont,
                   pressure_mesh=pmesh if pm is not None else None, parent_map=pm)
        res = _safe_beta(pc, k)
        if res is not None:
            return r, res.max_diameter_velocity, res.min_inradius_pressure, res
        return r, element_sizes(vmesh)[0], element_sizes(pmesh)[1], res

    items = list(enumerate(grids))
    results = _parallel(work, items, jobs)
    text, parsed = _beta_table(
        ["mesh", "refine_depth", "h_velocity", "h_pressure", "ratio", "beta_ref"],
        [
            ([f"{nx}x{ny}", str(r), _g(hx), _g(hm), _g(hx / hm), _ref_cell(beta_ref)], res)
            for (_, (nx, ny)), (r, hx, hm, res) in zip(items, results)
        ],
        k,
    )
    checks = []
    # opt-in for the same reason as the p-sweep: coarse-pressure rows of a
    # nested study may sit above the continuous reference
    if beta_ref is not None and cfg.get("check_usc", False):
        checks.append(_usc_all_rows(parsed, cfg))
    return RunOutput(csv=text, svgs={"": plot_h_refinement(parsed)}, checks=checks)


def plot_h_refinement(rows: list[dict]) -> str:
    xs = [float(r["ratio"]) for r in rows]
    ys = [float(r["beta"]) for r in rows]
    return line_plot(
        [("beta_n", xs, ys)],
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
    n_values = [int(n) for n in cfg.get("n_values", [8, 16, 32, 64])]
    refine = int(cfg.get("refine", 1))
    vdeg, pdeg = int(cfg.get("velocity_degree", 4)), int(cfg.get("pressure_degree", 3))
    k = int(cfg.get("k", 6))
    eps_grid = int(cfg.get("eps_grid", 512))

    def work(n):
        res = _safe_beta(_pair(regular_polygon_mesh(n, refine), vdeg, pdeg, solver), k)
        return res, perturb.polygon_disk_eps(n, grid_density=eps_grid)

    results = _parallel(work, n_values, jobs)
    disk = analytic.beta_disk().value
    rows = []
    for n, (res, est) in zip(n_values, results):
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
    lower_slack = float(cfg.get("lower_slack", 0.01))
    upper_slack = float(cfg.get("upper_slack", 0.005))
    ok_bounds = all(
        float(r["lower_bound"]) - lower_slack <= float(r["beta"]) <= disk + upper_slack
        for r in parsed
        if r["flagged"] == "0"
    ) and all(r["flagged"] == "0" for r in parsed)
    checks = [
        CheckResult("two-sided-bounds", ok_bounds, f"{len(parsed)} polygon sizes"),
        _doubling_ratios("gap-contraction", parsed, "gap", cfg.get("gap_ratio_window", [0.3, 0.7])),
        _doubling_ratios("eps-contraction", parsed, "eps_forward",
                         cfg.get("eps_ratio_window", [0.35, 0.65])),
    ]
    return RunOutput(csv=text, svgs={"": plot_polygon_limit(parsed)}, checks=checks)


def plot_polygon_limit(rows: list[dict]) -> str:
    xs = [float(r["n"]) for r in rows]
    series = [
        ("beta_n", xs, [float(r["beta"]) for r in rows]),
        ("lower bound", xs, [float(r["lower_bound"]) for r in rows]),
        ("upper bound", xs, [float(r["upper_bound"]) for r in rows]),
    ]
    return line_plot(series, "polygon edges n", "beta",
                     title="inscribed polygons approaching the disk")


# ----------------------------------------------------------------------
# perturbation rate
# ----------------------------------------------------------------------

def run_perturb_rate(cfg: dict, jobs: int = 1, seed=None) -> RunOutput:
    n_values = [int(n) for n in cfg.get("n_values", [8, 16, 32, 64])]
    grid = int(cfg.get("grid_density", 512))
    ests = _parallel(lambda n: perturb.polygon_disk_eps(n, grid_density=grid), n_values, jobs)
    chash = _cfg_hash(cfg)
    # estimate attributes written as columns, in order
    cols = ["eps_forward", "eps_inverse", "eps", "jacobian_deviation", "neumann_inverse_bound"]
    rows = []
    for n, est in zip(n_values, ests):
        bound_ok = est.jacobian_deviation <= 2 * est.eps_forward + est.eps_forward**2 + 1e-12
        cells = [_g(getattr(est, c)) for c in cols]
        rows.append([chash, str(n), *cells, str(int(bound_ok)), str(est.sample_count)])
    header = ["config_hash", "n", *cols, "jacobian_bound_ok", "sample_count"]
    text = _csv_text(header, rows)
    parsed = _parse_csv(text)
    checks = [
        _doubling_ratios("eps-halving", parsed, "eps_forward",
                         cfg.get("eps_ratio_window", [0.35, 0.65])),
        CheckResult(
            "jacobian-bound",
            all(r["jacobian_bound_ok"] == "1" for r in parsed),
            "sup|1-J| <= 2*eps + eps^2 on every map",
        ),
    ]
    return RunOutput(csv=text, svgs={"": plot_perturb_rate(parsed)}, checks=checks)


def plot_perturb_rate(rows: list[dict]) -> str:
    xs = [float(r["n"]) for r in rows]
    series = [
        ("eps forward", xs, [float(r["eps_forward"]) for r in rows]),
        ("eps inverse", xs, [float(r["eps_inverse"]) for r in rows]),
        ("|1 - J|", xs, [float(r["jacobian_deviation"]) for r in rows]),
    ]
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


def _write_outputs(prefix: str, out: RunOutput) -> None:
    with open(f"{prefix}.csv", "w", newline="\n") as f:
        f.write(out.csv)
    for suffix, text in sorted(out.extra_csv.items()):
        with open(f"{prefix}_{suffix}.csv", "w", newline="\n") as f:
            f.write(text)
    for suffix, text in sorted(out.svgs.items()):
        name = f"{prefix}.svg" if suffix == "" else f"{prefix}_{suffix}.svg"
        with open(name, "w", newline="\n") as f:
            f.write(text)


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
            cfg = json.load(f)
        kind = cfg.get("kind")
        if kind not in _COMMAND_KINDS[args.command]:
            raise ValueError(
                f"config kind {kind!r} not valid for subcommand {args.command!r}"
            )
        prefix = args.out or cfg.get("out") or kind
        out = _RUNNERS[kind](cfg, jobs=max(1, args.jobs), seed=args.seed)
        _write_outputs(prefix, out)
    except Exception as exc:  # computation failure -> exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for check in out.checks:
        print(check.line())
    if args.check and any(not c.passed for c in out.checks):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
