"""lbblab benchmark: time paper workloads through `lbblab.cli.main`.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the benchmark uses the lbblab sources in `src/` next to
this directory and writes only under `.perfbench_out/` at the repository
root.  With `--trace 0` it times `main` calls with nothing wrapped and prints
the end-to-end metrics; with `--trace 1` it alternates untraced and traced
calls and prints the per-layer metrics.  Every call's CSV rows and check
verdicts are compared with the goldens in `perfbench/golden/`.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  See perfbench/README.md for the workloads and
metrics.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here: before lbblab is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = HERE / "workloads"
# workload -> lbblab subcommand
WORKLOADS = {
    "beta_rect41": "beta",
    "fig3_window": "sweep",
    "h_refinement": "sweep",
    "p_sweep_high": "sweep",
}
# tiny inputs that take every route the workloads take: dense and ARPACK
# eigensolves, banded and dense Cholesky, SV splits, nested quads, high order
WARMUP = ("warmup_sv", "warmup_h", "warmup_p")
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60


def import_lbblab() -> None:
    """Import lbblab from this checkout's `src/`, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "lbblab" / "__init__.py").is_file():
        raise SystemExit(f"error: no lbblab sources at {src}")
    sys.path.insert(0, str(src))
    import lbblab.cli

    if Path(lbblab.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"error: lbblab was imported from {lbblab.cli.__file__}, not {src}")


def work_dir(*parts: str) -> Path:
    d = ROOT.joinpath(".perfbench_out", *parts)
    d.mkdir(parents=True, exist_ok=True)
    return d


def call_main(name: str, outdir: Path, seed: int, tracer=None) -> tuple[int, str]:
    """One `lbblab <command> --config ... --check` call: (exit code, stdout)."""
    import lbblab.cli as cli

    command = WORKLOADS.get(name, "sweep")  # the warm-up configs are all sweeps
    argv = [command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(outdir / name),
            "--seed", str(seed), "--jobs", "1", "--check"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv) if tracer is None else tracer.call("main", "cli", cli.main, argv)
    return rc, buf.getvalue()


def outputs(outdir: Path, name: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.glob(f"{name}*"))}


def read_csv(outdir: Path, name: str) -> str:
    path = outdir / f"{name}.csv"
    return path.read_text() if path.exists() else ""


def clear(outdir: Path) -> None:
    for p in outdir.iterdir():
        p.unlink()


def setup() -> float:
    """Import lbblab and warm every route up; seconds since interpreter start."""
    import_lbblab()
    outdir = work_dir("warmup")
    clear(outdir)
    for name in WARMUP:
        rc, stdout = call_main(name, outdir, seed=0)
        if rc != 0:
            raise SystemExit(f"error: warm-up {name} exited {rc}:\n{stdout}")
    return time.perf_counter() - _T0


def probe_setup() -> float:
    """Set-up time of a fresh interpreter running this file's set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}, too few samples for a tail percentile"
    beyond = 10
    q = 100 * (n - beyond) // n
    value = sorted(samples)[n - beyond - 1]
    return f"p{q}={value:.4f} (n={n})"


def env_record() -> dict:
    """Machine, library and source facts the numbers depend on."""
    import ctypes

    import numpy
    import scipy

    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower() and "scipy.libs" in line}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def fits(start: float, last: float, seconds: float) -> bool:
    """Whether one more call as long as the last one ends within `seconds`."""
    return time.perf_counter() - start + last <= seconds


def timed(name: str, seed: int, seconds: float, golden) -> tuple[dict, int, int]:
    """Untraced `main` calls for `seconds`; end-to-end metrics."""
    outdir = work_dir(name, "timed")
    walls, cpus = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or fits(start, walls[-1], seconds):
        clear(outdir)
        w0, c0 = time.perf_counter(), time.process_time()
        rc, stdout = call_main(name, outdir, seed)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        if len(walls) == 1:
            # later calls grow the heap by what the allocator keeps, and how
            # many calls fit in a run depends on the machine's speed
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        a, f = gate.score(golden, read_csv(outdir, name), stdout, rc)
        attempted, failed = attempted + a, failed + f
    print(f"wall_s samples: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"wall_s tail: {tail(walls)}")
    metrics = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
               "peak_rss_mb": peak_mb}
    return metrics, attempted, failed


def traced(name: str, seed: int, seconds: float, golden) -> tuple[dict, int, int, bool]:
    """Pairs of untraced and traced calls; per-layer metrics and fidelity."""
    plain_dir, traced_dir = work_dir(name, "plain"), work_dir(name, "traced")
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    per_call, plain_walls, spans_out = [], [], []
    attempted = failed = 0
    fidelity = True
    start = last_pair = time.perf_counter()
    while not per_call or fits(start, time.perf_counter() - last_pair, seconds):
        last_pair = time.perf_counter()
        clear(plain_dir)
        clear(traced_dir)
        # alternate which side runs first, so drift does not bias the overhead
        for traced_side in (False, True) if len(per_call) % 2 == 0 else (True, False):
            if traced_side:
                tracer.reset()
                tracer.install()
                try:
                    rc, stdout = call_main(name, traced_dir, seed, tracer=tracer)
                finally:
                    tracer.restore()
            else:
                w0 = time.perf_counter()
                rc_plain, out_plain = call_main(name, plain_dir, seed)
                plain_walls.append(time.perf_counter() - w0)
        restored = tracing.snapshot() == before
        same_bytes = outputs(plain_dir, name) == outputs(traced_dir, name)
        if not (restored and same_bytes and out_plain == stdout and rc_plain == rc):
            print(f"trace fidelity: restored={restored} same_bytes={same_bytes}", file=sys.stderr)
            fidelity = False
        csv_text = read_csv(traced_dir, name)
        for text, out, code in ((csv_text, stdout, rc),
                                (read_csv(plain_dir, name), out_plain, rc_plain)):
            a, f = gate.score(golden, text, out, code)
            attempted, failed = attempted + a, failed + f
        m = tracing.layer_metrics(tracer.spans, tracer.counts)
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        m["cli.points"] = len(rows)
        m["cli.points_flagged"] = sum(r["flagged"] == "1" for r in rows)
        per_call.append(m)
        spans_out += [dict(vars(s), call=len(per_call) - 1) for s in tracer.spans]
    with open(work_dir() / f"trace_{name}.jsonl", "w") as f:
        f.writelines(json.dumps(s) + "\n" for s in spans_out)
    metrics = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain_walls)
    print("layer share of traced wall_s: " + ", ".join(
        f"{layer} {metrics[f'share.{layer}']:.3f}" for layer in tracing.LAYERS))
    print(f"tracing overhead: {metrics['trace.overhead_s']:+.4f} s on "
          f"{statistics.median(plain_walls):.4f} s untraced ({len(per_call)} pairs)")
    return metrics, attempted, failed, fidelity


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.startswith("share."):
        return "fraction"
    return "ratio" if key == "spectral.residual_max" else "count"


def run_one(args) -> int:
    setups = [setup()]
    golden = gate.load(args.workload)
    print(f"env: {json.dumps(env_record(), sort_keys=True)}")
    if args.trace:
        metrics, attempted, failed, correct = traced(args.workload, args.seed, args.seconds, golden)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics, attempted, failed = timed(args.workload, args.seed, args.seconds, golden)
        correct = True
        setups += [probe_setup() for _ in range(SETUP_SAMPLES - 1)]
        print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
        metrics["setup_s"] = statistics.median(setups)
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    correct = correct and failed == 0
    print(f"failed_frac: {failed / attempted:.4f} fraction ({failed} of {attempted} points)")
    for key, value in metrics.items():
        print(f"{args.workload} {key}: {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so no peak memory carries over."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not proc.stdout.strip():
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="solver seed passed to lbblab as --seed")
    parser.add_argument("--seconds", type=float, default=25.0, help="time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup()}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
