"""Outside-in layer trace for lbblab, installed from the benchmark's own files.

`Tracer.install` replaces the module attributes through which one layer
reaches the next (for example `lbblab.cli.compute_beta` or
`lbblab.spectral.eigsh`) with wrappers that record a span per call, and adds
counting wrappers on `SymFactorization.solve`, `SchurOperator.apply` and the
`OPinv` operator handed to `eigsh`.  `Tracer.restore` puts every original
back.  Nothing under `src/` changes.

Spans stay in memory; `layer_metrics` turns the spans of one `main` call into
the per-layer metrics named in perfbench/README.md.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

MESH = ("sv_mesh", "rect_grid", "refine_chain")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    point: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.seconds - covered)
    return out


def _owner(module: str):
    import importlib

    return importlib.import_module(f"lbblab.{module}")


def _get(owner, attr: str):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def _set(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def span_targets():
    """(owner, attribute, layer, span name) of every spanned boundary.

    Each owner is the module through which the calling layer looks the
    function up, so the wrapper sits exactly on that layer's boundary.
    """
    cli, infsup, spectral = _owner("cli"), _owner("infsup"), _owner("spectral")
    out = [(cli._RUNNERS, kind, "cli", "runner") for kind in cli._RUNNERS]
    out += [(cli, attr, "geometry", attr) for attr in (*MESH, "element_sizes")]
    out += [
        (infsup, "element_sizes", "geometry", "element_sizes"),
        (cli, "compute_beta", "infsup", "compute_beta"),
        (infsup, "build_dof_map", "fem", "build_dof_map"),
        (infsup, "assemble_system", "fem", "assemble_system"),
        (infsup, "factorize_spd", "spectral", "factorize_spd"),
        (infsup, "smallest_generalized_eigs", "spectral", "smallest_generalized_eigs"),
    ]
    out += [(spectral, attr, "spectral", attr) for attr in ("dense_schur", "eigh", "splu")]
    return out


def snapshot() -> dict:
    """Identity of every attribute the tracer replaces, keyed by (owner, attribute)."""
    spectral = _owner("spectral")
    targets = [(o, a) for o, a, _, _ in span_targets()]
    targets += [(spectral, "eigsh"), (spectral.SymFactorization, "solve"),
                (spectral.SchurOperator, "apply")]
    return {(id(o), a): _get(o, a) for o, a in targets}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._points = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans, self.counts, self._stack, self._points = [], {}, [], 0

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn inside a span."""
        parent = self._stack[-1] if self._stack else None
        if name == "compute_beta":
            self._points += 1
            point = self._points
        else:
            point = self.spans[parent].point if parent is not None else None
        idx = len(self.spans)
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent, point))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, _get(owner, attr)))
        _set(owner, attr, replacement)

    def _spanned(self, owner, attr: str, layer: str, name: str, after=None) -> None:
        fn = _get(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, layer, fn, *args, **kwargs)
            if after is not None:
                after(out)
            return out

        self._patch(owner, attr, wrapper)

    def _counted(self, owner, attr: str, key: str, amount) -> None:
        fn = _get(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key, amount(*args))
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark workloads cross."""
        from scipy.sparse.linalg import LinearOperator

        if self._patches:
            raise RuntimeError("tracer already installed")
        spectral = _owner("spectral")
        after = {"assemble_system": self._on_system, "smallest_generalized_eigs": self._on_eigs}
        for owner, attr, layer, name in span_targets():
            self._spanned(owner, attr, layer, name, after.get(attr))
        self._counted(
            spectral.SymFactorization, "solve", "spectral.factor_solve_cols",
            lambda _self, b: b.shape[1] if getattr(b, "ndim", 1) == 2 else 1,
        )
        self._counted(spectral.SchurOperator, "apply", "spectral.schur_applies", lambda *a: 1)

        eigsh = spectral.eigsh

        @functools.wraps(eigsh)
        def eigsh_counted(*args, **kwargs):
            opinv = kwargs.get("OPinv")
            if opinv is not None:
                def matvec(x, _inner=opinv.matvec):
                    self.count("spectral.opinv_applies")
                    return _inner(x)

                kwargs["OPinv"] = LinearOperator(opinv.shape, matvec=matvec, dtype=opinv.dtype)
            return self.call("eigsh", "spectral", eigsh, *args, **kwargs)

        self._patch(spectral, "eigsh", eigsh_counted)

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            _set(owner, attr, original)

    # -- result hooks ------------------------------------------------------

    def _on_system(self, system) -> None:
        self.count("fem.n_velocity", system.A.shape[0])
        self.count("fem.n_pressure", system.Mp.shape[0])
        self.count("fem.nnz_A", system.A.nnz)
        self.count("fem.nnz_B", system.B.nnz)

    def _on_eigs(self, result) -> None:
        self.count(f"spectral.route_{result.method}")
        res = float(result.residuals.max()) if len(result.residuals) else 0.0
        self.counts["spectral.residual_max"] = max(self.counts.get("spectral.residual_max", 0.0), res)


LAYERS = ("geometry", "fem", "spectral", "infsup", "cli")

COUNT_KEYS = (
    "fem.n_velocity", "fem.n_pressure", "fem.nnz_A", "fem.nnz_B",
    "spectral.factor_solve_cols", "spectral.schur_applies", "spectral.opinv_applies",
    "spectral.route_dense", "spectral.route_arpack", "spectral.residual_max",
)


def layer_metrics(spans: list[Span], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced `main` call (spans[0] is `main`)."""
    selfs = self_times(spans)
    wall = spans[0].seconds

    def total(names, outermost=False):
        picked = [
            s for s in spans
            if s.name in names
            and not (outermost and s.parent is not None and spans[s.parent].name in names)
        ]
        return sum(s.seconds for s in picked), len(picked)

    def self_of(name):
        return sum(t for s, t in zip(spans, selfs) if s.name == name)

    m: dict[str, float] = {}
    m["geometry.mesh_s"], m["geometry.mesh_calls"] = total(MESH, outermost=True)
    m["geometry.element_sizes_s"], m["geometry.element_sizes_calls"] = total(("element_sizes",))
    m["fem.dofmap_s"], m["fem.dofmap_calls"] = total(("build_dof_map",))
    m["fem.assembly_s"], m["fem.assembly_calls"] = total(("assemble_system",))
    m["spectral.factor_s"], m["spectral.factor_calls"] = total(("factorize_spd",))
    m["spectral.dense_schur_s"], _ = total(("dense_schur",))
    m["spectral.eigh_s"], _ = total(("eigh",))
    m["spectral.eigsh_s"], _ = total(("eigsh",))
    m["spectral.splu_s"], m["spectral.splu_calls"] = total(("splu",))
    m["spectral.eigs_s"], _ = total(("smallest_generalized_eigs",))
    m["spectral.eigs_self_s"] = self_of("smallest_generalized_eigs")
    m["infsup.compute_beta_s"], m["infsup.compute_beta_calls"] = total(("compute_beta",))
    m["infsup.self_s"] = self_of("compute_beta")
    m["cli.run_s"], _ = total(("runner",))
    m["cli.self_s"] = self_of("runner")
    m["cli.output_s"] = self_of("main")
    for key in COUNT_KEYS:
        m[key] = counts.get(key, 0)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, selfs):
        by_layer[s.layer] += t
    for layer in LAYERS:
        m[f"share.{layer}"] = by_layer[layer] / wall
    m["trace.wall_s"] = wall
    return m
