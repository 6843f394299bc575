#!/usr/bin/env python3
"""Benchmark of the hsolo package, run from the root of a source checkout.

    python3 perfbench/run.py --workload lowrate-n500 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

One run builds the workload's inputs from ``--seed`` (set-up), then repeats
its operation for ``--seconds`` and checks every result. ``--trace 0``
reports the end-to-end metrics. ``--trace 1`` reports the per-layer metrics:
it runs every operation twice, once untraced and once with the package's
public functions wrapped, checks that both returned identical results, and
reports the difference in time as the tracing overhead. ``--workload all``
runs every workload in its own process and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and each metric with its sample count or base. The exit
code is 1 when a check fails and 2 when the package source is missing.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: sweep-threads2 runs two
# worker threads on a two-core machine, and numpy's OpenBLAS would otherwise
# start a thread per core, over-subscribing the cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import METRICS, layer_metrics  # noqa: E402
from tracer import Tracer, untraced_call  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("lowrate-n500", "filepool-n2000", "sweep-threads2")
SETUP_ROUNDS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import hsolo; print(time.perf_counter() - t)"

# name -> unit of every end-to-end metric, in the order they are reported
END_TO_END = {
    "setup_s": "s",
    "hsolo_solve_ms_p50": "ms",
    "ransac_solve_ms_p50": "ms",
    "hsolo_success_rate": "ratio",
    "hsolo_err_px_p50": "px",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics but left out of the JSON result, as
# their spread over seeds is wider than any bound the benchmark may set: the
# p90s sit in a sparse tail that GIL contention on the sweep moves, and RANSAC
# succeeds in about 3% of lowrate-n500 solves, a handful per run.
UNBOUNDED = {
    "hsolo_solve_ms_p90": "ms",
    "ransac_solve_ms_p90": "ms",
    "ransac_success_rate": "ratio",
    "ransac_err_px_p50": "px",
}


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
    }


def setup(workload, call):
    """Median over SETUP_ROUNDS of (fresh-interpreter import + input build).

    Returns that median and the last round's inputs and input problems.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times, inputs = [], None
    for _ in range(SETUP_ROUNDS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        t0 = time.perf_counter()
        inputs = None  # free the previous round's inputs before building again
        inputs, problems = workload.build(call)
        times.append(float(probe.stdout) + time.perf_counter() - t0)
    return statistics.median(times), inputs, problems


def settle() -> None:
    """Put the objects alive now (the run's inputs) out of the collector's reach.

    A process using the package holds one pool, but the benchmark holds every
    pool of its workload. Without this, each full collection during a solve
    would also scan those, adding pauses of up to about 165 ms on
    filepool-n2000 that belong to the benchmark and not to the program.
    """
    gc.collect()
    gc.freeze()


def run_ops(workload, inputs, call, seconds: float) -> list:
    """Run operations 0, 1, ... until ``seconds`` have passed."""
    results = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        results.append(workload.op(inputs, len(results), call))
    return results


def quantile(values, q: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])


def end_to_end(results, setup_s) -> tuple[dict, dict]:
    """Values and printed bases of END_TO_END and UNBOUNDED."""
    v, base = {"setup_s": setup_s}, {"setup_s": f"median of {SETUP_ROUNDS} set-ups"}
    solves = [s for r in results for s in r.solves]
    for method in ("hsolo", "ransac"):
        mine = [s for s in solves if s.method == method]
        ms = [s.ms for s in mine]
        wins = [s.err_px for s in mine if s.success]
        for q in (50, 90):
            v[f"{method}_solve_ms_p{q}"] = quantile(ms, q / 100)
            base[f"{method}_solve_ms_p{q}"] = f"n={len(ms)} solves"
        v[f"{method}_success_rate"] = len(wins) / len(mine)
        base[f"{method}_success_rate"] = f"{len(wins)} / {len(mine)} solves"
        v[f"{method}_err_px_p50"] = statistics.median(wins) if wins else 0.0
        base[f"{method}_err_px_p50"] = f"n={len(wins)} successful solves"
    trials = sum(r.trials for r in results)
    loop_s = sum(r.ms for r in results) / 1e3
    v["trials_per_s"] = trials / loop_s
    base["trials_per_s"] = f"{trials} trials / {loop_s:.2f} s"
    v["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    base["peak_rss_mb"] = "ru_maxrss of the benchmark process"
    return v, base


def compare_passes(untraced, traced) -> list[str]:
    """Problems where the traced pass returned other results than the untraced one."""
    problems = []
    for i, (a, b) in enumerate(zip(untraced, traced)):
        fa = [(s.method, s.fingerprint, s.success) for s in a.solves]
        fb = [(s.method, s.fingerprint, s.success) for s in b.solves]
        if fa != fb:
            problems.append(f"operation {i}: traced results differ from untraced ones")
    return problems


def run_paired(workload, inputs, tracer, seconds: float):
    """Run each operation untraced and traced until ``seconds`` have passed.

    Returns both lists of results and the process CPU / wall ratio of the
    untraced operations.
    """
    untraced, traced, cpu_s, wall_s = [], [], 0.0, 0.0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        i = len(untraced)
        # alternating which pass goes first keeps warm caches from favouring either
        for traced_pass in (False, True) if i % 2 == 0 else (True, False):
            if traced_pass:
                tracer.install()
                try:
                    traced.append(workload.op(inputs, i, tracer.call))
                finally:
                    tracer.uninstall()
            else:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                untraced.append(workload.op(inputs, i, untraced_call))
                cpu_s += time.process_time() - cpu0
                wall_s += time.perf_counter() - wall0
    return untraced, traced, cpu_s / wall_s


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    if not trace:
        setup_s, inputs, problems = setup(workload, untraced_call)
        settle()
        results = run_ops(workload, inputs, untraced_call, seconds)
        metrics, base = end_to_end(results, setup_s)
        units = END_TO_END
    else:
        tracer = Tracer()
        tracer.install()
        try:
            inputs, problems = workload.build(tracer.call)
        finally:
            tracer.uninstall()
        settle()
        untraced, traced, cpu_per_wall = run_paired(workload, inputs, tracer, seconds)
        problems += compare_passes(untraced, traced)
        results = untraced + traced
        plain_ms = sum(r.ms for r in untraced)
        traced_ms = sum(r.ms for r in traced)
        overhead = 100.0 * (traced_ms - plain_ms) / plain_ms
        baseline = [s for r in traced for s in r.solves if s.method == "ransac"]
        metrics, base = layer_metrics(tracer.spans, baseline, cpu_per_wall, overhead)
        base["trace.overhead_pct"] += f" ({traced_ms:.0f} vs {plain_ms:.0f} ms, {len(traced)} operations)"
        units = METRICS
    for r in results:
        problems += r.problems
    report = {
        "correct": not problems,
        "attempted": sum(len(r.solves) for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return report, metrics, base, problems


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    reports, code = {}, 0
    for k, name in enumerate(WORKLOAD_NAMES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if k == 0 or not line.startswith("# env")))
        code = max(code, proc.returncode)
        if proc.returncode in (0, 1) and lines:
            reports[name] = json.loads(lines[-1])
    print(json.dumps(reports))
    return code


def use_checkout() -> bool:
    """Put the checkout's package source on the path; False if it is missing."""
    if not (SRC / "hsolo" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'hsolo'}", file=sys.stderr)
        return False
    sys.path[:0] = [str(SRC), str(HERE)]
    return True


@contextlib.contextmanager
def work_dir():
    """A fresh directory in the checkout for the run's files, removed afterwards."""
    path = ROOT / ".perfbench_work" / str(os.getpid())
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path)
        with contextlib.suppress(OSError):  # another run may still use it
            path.parent.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout():
        return 2
    if args.workload == "all":
        return run_all(args)
    print("# env " + json.dumps(environment()))
    with work_dir() as workdir:
        report, values, base, problems = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for k, m in report["metrics"].items():
        print(f"# {args.workload} {k} = {m['value']:.6g} {m['unit']} ({base[k]})")
    if not args.trace:
        for k, unit in UNBOUNDED.items():
            print(f"# {args.workload} {k} = {values[k]:.6g} {unit} ({base[k]}; not in the result line)")
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
