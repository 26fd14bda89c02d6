"""kpztail benchmark: one workload per process, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload rate --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run from the root of a checkout; the package is imported from its `src/`.
The process generates the workload's inputs from --seed, then repeats the
workload's pass while another pass, at the mean pass time so far, still
ends within --seconds (at least one pass).  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.

--trace 0 reports the end-to-end metrics from untraced passes; pass and
set-up times are gated as CPU time, and their wall times are reported.
--trace 1 runs untraced and traced passes in pairs (at least two) and
reports the per-layer metrics of the traced ones plus the tracing overhead.
--workload all runs every workload in its own process and prints one table.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> unit, in BENCHMARK.json order
END_TO_END = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "solver.busy_s": "s", "solver.fwd_calls": "count", "solver.fwd_step_us": "us",
    "solver.grad_calls": "count", "solver.grad_step_us": "us",
    "solver.opnorm_iters": "count", "solver.opnorm_step_us": "us",
    "solver.fwd_step_us_n801": "us", "solver.grad_step_us_n801": "us",
    "variational.rate_solve_s": "s", "variational.picard_iters": "count",
    "variational.cert_s": "s", "variational.self_s": "s",
    "variational.converged_frac": "fraction",
    "rearrange.busy_s": "s", "rearrange.steiner_calls": "count",
    "rearrange.steiner_ms": "ms", "rearrange.bll_ms": "ms",
    "spectral.busy_s": "s", "spectral.ground_state_calls": "count",
    "spectral.ground_state_us": "us", "spectral.ground_state_ms_n4001": "ms",
    "bridge.busy_s": "s", "bridge.growth_path_steps_per_s": "1/s",
    "bridge.hit_path_steps_per_s": "1/s", "bridge.path_steps_per_s": "1/s",
    "bridge.ess": "count", "bridge.ess_frac": "fraction", "bridge.ess_per_s": "1/s",
    "bridge.shape_self_s": "s", "cli.self_ms": "ms",
    "bench.self_s": "s", "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}
# shown by the report, carried outside the result object
REPORT_ONLY = {"wall_s": "s", "setup_wall_s": "s", "error_rate": "fraction",
               "path_steps_per_s": "1/s", "ess_per_s": "1/s"}


def _import_package():
    """Put this checkout's src/ first on the path; refuse to run without it."""
    if not (SRC / "kpztail" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'kpztail'}; run from a kpztail checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import kpztail

    if Path(kpztail.__file__).resolve().parent != (SRC / "kpztail").resolve():
        sys.exit(f"perfbench: imported kpztail from {kpztail.__file__}, not from {SRC}")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": _git_commit(),
    }


def _setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """Wall and CPU seconds from spawning a fresh interpreter to its inputs being ready."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=True)
    # perf_counter is the system-wide monotonic clock, so the child's reading
    # is comparable with ours; its process_time counts from its own start
    ready, cpu = map(float, done.stdout.strip().splitlines()[-1].split())
    return ready - start, cpu


def _passes_left(elapsed: float, done: int, seconds: float) -> bool:
    """Start another pass only if, at the mean pass time, it ends within `seconds`."""
    return elapsed + elapsed / done <= seconds


def _timed_pass(inputs, records) -> tuple[float, float]:
    """Run one pass; return its wall time and the process's CPU time in it."""
    from workloads import run_pass

    t, c = perf_counter(), process_time()
    records.append(run_pass(inputs))
    return perf_counter() - t, process_time() - c


def measure(inputs, seconds: float, traced: bool):
    """Run passes; return (untraced (wall, cpu) times, traced walls, records, tracer).

    A traced run makes at least two untraced/traced pairs and alternates
    which half goes first, so drift and first-pass costs do not land on
    one side of the overhead.
    """
    from spans import Tracer, verify_untraced

    tracer = Tracer() if traced else None
    times, traced_walls, records = [], [], []
    start = perf_counter()
    while True:
        order = (False, True) if len(times) % 2 == 0 else (True, False)
        for with_trace in (order if traced else (False,)):
            if with_trace:
                with tracer.installed(), tracer.root(f"pass.{inputs.workload}"):
                    traced_walls.append(_timed_pass(inputs, records)[0])
            else:
                verify_untraced()
                times.append(_timed_pass(inputs, records))
        enough = not traced or len(times) >= 2
        if enough and not _passes_left(perf_counter() - start, len(times), seconds):
            return times, traced_walls, records, tracer


def _median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def run_workload(args) -> int:
    import workloads
    from spans import layer_metrics

    t_start = perf_counter()
    inputs = workloads.make_inputs(args.workload, args.seed, OUT_DIR, workloads.load_reference())
    in_process_setup = perf_counter() - t_start
    setups = [] if args.trace else [_setup_sample(args.workload, args.seed)
                                     for _ in range(SETUP_SAMPLES)]
    setup_walls = [w for w, _ in setups]
    setup_cpus = [c for _, c in setups]

    times, traced_walls, records, tracer = measure(inputs, args.seconds, bool(args.trace))
    walls = [w for w, _ in times]
    cpus = [c for _, c in times]
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    problems = sorted({p for r in records for ps in r.problems.values() for p in ps})

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": len(walls), "pass_walls_s": walls,
              "pass_cpu_s": cpus,
              "input_generation_s": in_process_setup, "setup_samples_s": setup_walls,
              "setup_cpu_samples_s": setup_cpus,
              "problems": problems, "stats": records[0].stats, "env": environment()}
    if args.trace:
        per_pass = []
        for run in range(1, tracer.run + 1):
            per_pass.append(layer_metrics(tracer.run_spans(run)))
        layer = _median_metrics(per_pass)
        layer["trace.untraced_wall_s"] = statistics.median(walls)
        layer["trace.overhead_s"] = statistics.median(
            tw - w for tw, w in zip(traced_walls, walls))
        metrics = {k: (layer[k], PER_LAYER[k]) for k in PER_LAYER}
        _write_json(OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.json",
                    [vars(s) for s in tracer.spans])
    else:
        metrics = {
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setup_cpus), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        stats = records[0].stats
        extra = {"wall_s": statistics.median(walls),
                 "setup_wall_s": statistics.median(setup_walls),
                 "error_rate": failed / attempted}
        if "path_steps" in stats:
            bridge_s = statistics.median(r.stats["growth_s"] + r.stats["hit_s"] for r in records)
            growth_s = statistics.median(r.stats["growth_s"] for r in records)
            extra["path_steps_per_s"] = stats["path_steps"] / bridge_s
            extra["ess_per_s"] = stats["ess"] / growth_s
        report["report_only"] = {k: (v, REPORT_ONLY[k]) for k, v in extra.items()}

    report["metrics"] = metrics
    _write_json(OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
                report)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(walls)} attempted={attempted} failed={failed}")
    for p in problems:
        print(f"  FAIL {p}")
    for name, (value, unit) in {**metrics, **report.get("report_only", {})}.items():
        print(f"  {name:34s} {value:<16.6g} {unit}")
    print("perfbench-report " + json.dumps(report, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, default=str))


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    from workloads import WORKLOADS

    rows = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, check=True, timeout=4 * CHILD_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        report = json.loads(next(l for l in lines if l.startswith("perfbench-report "))
                            .split(" ", 1)[1])
        rows[name] = (json.loads(lines[-1]), report)
    names = list(PER_LAYER if args.trace else [*END_TO_END, *REPORT_ONLY])
    units = {**END_TO_END, **REPORT_ONLY, **PER_LAYER}
    print(f"{'metric':34s} {'unit':9s}" + "".join(f"{w:>15s}" for w in WORKLOADS))
    for m in names:
        cells = []
        for w in WORKLOADS:
            report = rows[w][1]
            value = {**report.get("report_only", {}), **report["metrics"]}.get(m)
            cells.append(f"{value[0]:15.6g}" if value else f"{'-':>15s}")
        print(f"{m:34s} {units[m]:9s}" + "".join(cells))
    for w in WORKLOADS:
        for p in rows[w][1]["problems"]:
            print(f"FAIL {w}: {p}")
    print(json.dumps({
        "correct": all(r["correct"] for r, _ in rows.values()),
        "attempted": sum(r["attempted"] for r, _ in rows.values()),
        "failed": sum(r["failed"] for r, _ in rows.values()),
        "metrics": {f"{w}.{k}": v for w, (r, _) in rows.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    _import_package()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        workloads.make_inputs(args.workload, args.seed, OUT_DIR)
        print(repr(perf_counter()), repr(process_time()))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
