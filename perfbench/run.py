"""folcontact benchmark: end-to-end and per-layer metrics for one workload.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with nothing patched. `--trace 1`
runs every cycle twice, untraced and then with spans around each public
layer function, and reports per-layer calls and self time, solver quality
and the tracing overhead. The last line
of stdout is the result object; the lines before it list every metric with
its unit and the environment the numbers were taken in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracing
from oracles import CheckFailed, Quality

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 9
TAIL_MIN_BEYOND = 10

WORKLOADS = ("solve", "paths", "cli")
# End-to-end metrics (untraced run) and per-layer metrics (traced run):
# name -> unit. BENCHMARK.json declares the same names.
END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "unit_p50_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_SPANS = [
    "algebra.jacobian_form",
    "algebra.PolyOneForm.evaluate",
    "algebra.takagi",
    "linear.analyze",
    "contact.sphere_search",
    "contact.contact_residual",
    "contact.continue_radially",
    "leaf.flow_to_critical",
    "leaf.project_to_leaf",
    "leaf.sample_field",
    "leaf.leaf_hessian",
    "leaf.index_persistence",
    "leaf.transversality_scan",
    "index.disc_tangency_audit",
    "jsonio.form_from_json",
    "jsonio.matrix_from_json",
    "cli.main",
]
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in LAYER_SPANS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "algebra.Polynomial.evaluate.calls": "count",
    "contact.distinct_per_converged": "ratio",
    "contact.lines_recovered_frac": "ratio",
    "contact.lines_total": "count",
    "contact.points_found": "count",
    "contact.seeds_converged_frac": "ratio",
    "contact.seeds_tried": "count",
    "leaf.flow_steps": "count",
    "leaf.polished_frac": "ratio",
    "leaf.index_match_frac": "ratio",
    "leaf.hessian_eig_err_max": "1",
    "leaf.hessians_checked": "count",
    "cli.import_s": "s",
    "trace.units": "count",
    "trace.unit_s": "s",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_percentile(n_samples: int) -> int | None:
    """Highest of p99, p90, p75 with at least ten samples beyond it."""
    for p in (99, 90, 75):
        if n_samples * (100 - p) / 100 >= TAIL_MIN_BEYOND:
            return p
    return None


def percentile(values: list[float], p: int) -> float:
    """p-th percentile by linear interpolation between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _child_import_s(env: dict) -> float:
    """Seconds a fresh interpreter spends importing folcontact.cli."""
    code = "import time; t = time.perf_counter(); import folcontact.cli; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "git_sha": sha,
    }


class Tally:
    """What one measured phase did: unit times, failures, quality."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.quality = Quality()


def _run_cycle(units, tally: Tally, label: str) -> None:
    for unit in units:
        tally.attempted += 1
        try:
            t0 = perf_counter()
            out = unit.run()
            dt = perf_counter() - t0
            unit.check(out, tally.quality)
        except Exception as exc:  # a unit that raises or fails its check counts as failed; the run goes on
            tally.failed += 1
            print(f"perfbench: {unit.label} ({label}): {exc}", file=sys.stderr)
            if not isinstance(exc, CheckFailed):
                traceback.print_exc()
        else:
            tally.times.append(dt)


def measure(workload, seed: int, seconds: float, tracer=None) -> tuple[Tally, Tally]:
    """Run whole cycles for about `seconds`; returns (untraced, traced) tallies.

    With a tracer, each cycle runs untraced and then again, on freshly built
    inputs, traced: the two halves see the same machine load, so their gap
    is the tracing overhead.
    """
    plain, traced = Tally(), Tally()
    start = perf_counter()
    k = 0
    while k == 0 or (elapsed := perf_counter() - start) + elapsed / k <= seconds:
        label = f"seed {seed}, cycle {k}"
        _run_cycle(workload.cycle(seed, k), plain, label)
        if tracer is not None:
            patches = tracing.install(tracer)
            try:
                _run_cycle(workload.cycle(seed, k), traced, label + ", traced")
            finally:
                tracing.uninstall(patches)
        k += 1
    return plain, traced


def setup(workload, seed: int, env: dict) -> tuple[float, float]:
    """Median import time of a fresh interpreter plus median input generation
    and warm-up, each over SETUP_REPS repetitions; returns (setup_s, import_s)."""
    import_s = statistics.median(_child_import_s(env) for _ in range(SETUP_REPS))
    prep = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        workload.cycle(seed, 0)
        workload.warmup()
        prep.append(perf_counter() - t0)
    return import_s + statistics.median(prep), import_s


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(name: str, tally: Tally, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "units_per_s": _ratio(len(tally.times), sum(tally.times)),
        "unit_p50_s": statistics.median(tally.times) if tally.times else 0.0,
        "peak_rss_mb": peak_rss_mb(children=(name == "cli")),
    }


def per_layer(tracer, traced: Tally, untraced: Tally, import_s: float) -> dict[str, float]:
    totals = tracer.layer_totals()
    counts = tracer.counts
    q = traced.quality
    m = {name: value for name, (value, _) in q.metrics().items()}
    out: dict[str, float] = {}
    for name in LAYER_SPANS:
        calls, own = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
    flows = totals.get("leaf.flow_to_critical", (0, 0.0))[0]
    traced_s, untraced_s = sum(traced.times), sum(untraced.times)
    out.update(
        {
            "algebra.Polynomial.evaluate.calls": counts["algebra.Polynomial.evaluate"],
            "contact.distinct_per_converged": _ratio(counts["contact.points_distinct"], counts["contact.seeds_converged"]),
            "contact.lines_recovered_frac": m.get("lines_recovered_frac", 0),
            "contact.lines_total": q.lines_total,
            "contact.points_found": m.get("points_found", 0),
            "contact.seeds_converged_frac": m.get("seeds_converged_frac", 0),
            "contact.seeds_tried": q.seeds_tried,
            "leaf.flow_steps": counts["leaf.flow_steps"],
            "leaf.polished_frac": _ratio(counts["leaf.flows_polished"], flows),
            "leaf.index_match_frac": m.get("index_match_frac", 0),
            "leaf.hessian_eig_err_max": m.get("hessian_eig_err_max", 0),
            "leaf.hessians_checked": q.index_total,
            "cli.import_s": import_s,
            "trace.units": len(traced.times),
            "trace.unit_s": traced_s,
            "trace.overhead_frac": _ratio(traced_s, untraced_s) - 1.0 if untraced_s else 0.0,
        }
    )
    return out


def extras(tally: Tally) -> dict[str, tuple[float, str]]:
    """Metrics printed for reading but not declared: tail, failures, quality."""
    out = {
        "units": (len(tally.times), "count"),
        "failed_frac": (_ratio(tally.failed, tally.attempted), "ratio"),
    }
    p = tail_percentile(len(tally.times))
    if p is not None:
        out[f"unit_p{p}_s"] = (percentile(tally.times, p), "s")
    out.update(tally.quality.metrics())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "folcontact" / "__init__.py").is_file():
        print(f"perfbench: no folcontact source under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import jsonschema  # noqa: F401  (report validation needs it)
    except ImportError:
        print("perfbench: the jsonschema package is required to validate reports", file=sys.stderr)
        return 2
    import folcontact
    import workloads

    if Path(folcontact.__file__).resolve().parent != (SRC / "folcontact").resolve():
        print(f"perfbench: imported folcontact from {folcontact.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        # cli units are child processes in the untraced run and cli.main calls in the traced one
        workload = workloads.make(args.workload, ROOT, workdir, in_process=bool(args.trace))
        setup_s, import_s = setup(workload, args.seed, workloads.child_env(ROOT))

        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = measure(workload, args.seed, args.seconds, tracer)
            tracer.write(work_root / f"spans-{args.workload}-seed{args.seed}.json.gz")
            metrics = per_layer(tracer, traced, untraced, import_s)
            units = PER_LAYER
            tallies = (untraced, traced)
        else:
            tally, _ = measure(workload, args.seed, args.seconds)
            metrics = end_to_end(args.workload, tally, setup_s)
            units = END_TO_END
            tallies = (tally,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in extras(tallies[-1]).items():
        print(f"# {name} = {value:.6g} {unit} (not declared)")
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed, "trace": args.trace}))

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
