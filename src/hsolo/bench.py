"""Monte-Carlo benchmark harness comparing estimation methods.

Runs repeated trials on synthetic scenes (fresh truth + pool per trial) or on
a correspondence file (fixed pool, varying estimator seeds). Success on
synthetic scenes is judged against held-out exact correspondences of the known
truth; files with a ground-truth column are judged on the flagged rows; files
without one fall back to clustering the per-trial mean errors, where the dense
low-error cluster is presumed correct.

Every trial derives its own seed from the base seed and trial index, so runs
are reproducible and trials can execute on worker processes without changing
any result.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .analysis import NOISE, dbscan_1d
from .estimator import HsoloConfig, hsolo_estimate
from .exceptions import InfeasibleSpec, NoModelFound
from .fileio import LoadedCorrespondences
from .geometry import Homography, pool_arrays, project_points, transfer_errors
from .robust import RansacConfig, ransac_homography
from .synthetic import SceneSpec, generate_scene, random_scene_truth

SUCCESS_ERROR_PX = 2.0
METHODS = ("hsolo", "ransac")
# clustering radius (px) for files without a ground-truth column
_CLUSTER_EPS_PX = 0.5

_EVAL_GRID = 5


@dataclass(frozen=True)
class TrialRecord:
    """One estimation attempt and its evaluation."""

    method: str
    w_true: float
    success: bool
    mean_reproj_error: float
    iterations: int
    elapsed: float
    seed: int


@dataclass(frozen=True)
class SceneSweep:
    """Synthetic benchmark input: one scene family per inlier rate.

    Each trial's scene comes from :meth:`spec`; construction runs ``SceneSpec``'s
    checks for every rate, so a bad recipe raises here, before any trial.
    """

    image_bounds: tuple[float, float]
    n_total: int
    inlier_rates: tuple[float, ...]
    pixel_noise_sigma: float = 0.0
    scale_noise_sigma: float = 0.0
    angle_noise_sigma: float = 0.0

    def __post_init__(self):
        for w in self.inlier_rates:
            self.spec(Homography.identity(), w, 0)

    def spec(self, truth: Homography, w: float, seed: int) -> SceneSpec:
        """The recipe of one scene of this sweep at inlier rate ``w``."""
        return SceneSpec(
            truth=truth, image_bounds=self.image_bounds, n_total=self.n_total, inlier_rate=w,
            pixel_noise_sigma=self.pixel_noise_sigma, scale_noise_sigma=self.scale_noise_sigma,
            angle_noise_sigma=self.angle_noise_sigma, seed=seed,
        )


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate over the executed trials of one (method, inlier rate) cell."""

    method: str
    w_target: float
    trials: int
    skipped: int
    successes: int
    success_rate: float
    median_iterations: float
    median_error: float
    median_elapsed: float


@dataclass(frozen=True)
class BenchmarkResult:
    records: tuple[TrialRecord, ...]
    summary: tuple[SummaryRow, ...]
    notes: tuple[str, ...]


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


def _held_out_pairs(truth, bounds) -> tuple[np.ndarray, np.ndarray]:
    """Exact grid correspondences of the truth, never shown to the estimators."""
    width, height = bounds
    xs = np.linspace(0.1 * width, 0.9 * width, _EVAL_GRID)
    ys = np.linspace(0.1 * height, 0.9 * height, _EVAL_GRID)
    gx, gy = np.meshgrid(xs, ys)
    a = np.column_stack([gx.ravel(), gy.ravel()])
    return a, project_points(truth.m, a)[0]


def _evaluate(result, elapsed, method, w_true, held_out, seed) -> TrialRecord:
    if result is None:
        return TrialRecord(method, w_true, False, math.inf, 0, elapsed, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        errors = transfer_errors(result.model.m, *held_out)
        mean_err = float(np.mean(errors)) if len(errors) else math.inf
    if math.isnan(mean_err):
        mean_err = math.inf
    return TrialRecord(
        method,
        w_true,
        bool(mean_err < SUCCESS_ERROR_PX),
        mean_err,
        result.iterations_run,
        result.elapsed,
        seed,
    )


def _method_records(pool, methods, configs, streams, w_true, held_out, trial_seed):
    """Run and evaluate every method on one pool, each on its own seed stream."""
    records = []
    for method in methods:
        config = replace(configs[method], seed=_seed_int(streams[method]))
        t0 = time.perf_counter()
        try:
            result = (
                hsolo_estimate(pool, config)
                if method == "hsolo"
                else ransac_homography(pool, pool, None, config)
            )
        except NoModelFound:
            result = None
        elapsed = time.perf_counter() - t0
        records.append(_evaluate(result, elapsed, method, w_true, held_out, trial_seed))
    return records


def _synthetic_trial(sweep, w, wi, ti, base_seed, methods, configs) -> list[TrialRecord]:
    ss = np.random.SeedSequence((base_seed, wi, ti))
    trial_seed = _seed_int(ss)
    truth_ss, scene_ss, *method_ss = ss.spawn(4)
    truth = random_scene_truth(np.random.default_rng(truth_ss), sweep.image_bounds)
    try:
        pool, mask = generate_scene(sweep.spec(truth, w, _seed_int(scene_ss)))
    except InfeasibleSpec:
        return [TrialRecord(m, float("nan"), False, math.inf, 0, 0.0, trial_seed) for m in methods]
    held_out = _held_out_pairs(truth, sweep.image_bounds)
    streams = dict(zip(METHODS, method_ss))
    return _method_records(pool, methods, configs, streams, float(mask.mean()), held_out, trial_seed)


def _file_trial(pool, held_out, w_true, ti, base_seed, methods, configs):
    ss = np.random.SeedSequence((base_seed, 0, ti))
    streams = dict(zip(METHODS, ss.spawn(4)[2:]))
    return _method_records(pool, methods, configs, streams, w_true, held_out, _seed_int(ss))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_trials(trial_fn, args_list, workers: int) -> list:
    """Each trial's records, in the order of ``args_list``.

    The trials run on min(workers, trials, usable CPUs) processes: this one
    when that is 1, else one pool of worker processes, for which
    ``trial_fn`` and its arguments must pickle.
    """
    processes = min(workers, len(args_list), _usable_cpus())
    if processes <= 1:
        return [trial_fn(*args) for args in args_list]
    from concurrent.futures import ProcessPoolExecutor  # spares `import hsolo` the process machinery

    # the platform's start method: under spawn each worker of each run would import numpy again
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(trial_fn, *zip(*args_list)))


def _summarize(method, w_target, records, trials, skipped) -> SummaryRow:
    records = [r for r in records if r.method == method]
    executed = len(records)
    successes = sum(1 for r in records if r.success)
    success_errors = [r.mean_reproj_error for r in records if r.success]
    return SummaryRow(
        method=method,
        w_target=w_target,
        trials=trials,
        skipped=skipped,
        successes=successes,
        success_rate=successes / executed if executed else math.nan,
        median_iterations=float(np.median([r.iterations for r in records])) if executed else math.nan,
        median_error=float(np.median(success_errors)) if success_errors else math.nan,
        median_elapsed=float(np.median([r.elapsed for r in records])) if executed else math.nan,
    )


def _cluster_success(records, methods):
    """Re-judge success by clustering mean errors (file input without truth).

    A cluster needs max(5, ceil(0.02 * trials)) members, so fewer than 5
    trials of a method never find one.
    """
    out = [replace(r, success=False) for r in records]
    for method in methods:
        idx = [i for i, r in enumerate(records) if r.method == method]
        finite = [i for i in idx if math.isfinite(records[i].mean_reproj_error)]
        if not finite:
            continue
        min_pts = max(5, math.ceil(0.02 * len(idx)))
        cr = dbscan_1d([records[i].mean_reproj_error for i in finite], _CLUSTER_EPS_PX, min_pts)
        for label, i in zip(cr.labels, finite):
            if label == cr.winner != NOISE:
                out[i] = replace(out[i], success=True)
    return out


def run_benchmark(
    source,
    methods,
    trials: int,
    hsolo_config: HsoloConfig,
    ransac_config: RansacConfig,
    *,
    seed: int = 0,
    workers: int = 1,
) -> BenchmarkResult:
    """Run the benchmark on a :class:`SceneSweep` or :class:`LoadedCorrespondences`.

    Each method, named once, runs on a seed stream of its own, so its records
    do not depend on the other methods or their order. A sweep's recipe was
    checked when the sweep was built, and these arguments are checked before
    any trial starts; an error raised inside a trial keeps its type.

    The single-correspondence method is skipped (with a note) at inlier rates
    where the expected true-inlier count c fails c / n_f >= w_f, since its
    filtered-set assumption cannot hold there. Point-only files can only run
    the plain RANSAC baseline: the seeded method raises
    :class:`~hsolo.exceptions.FileFormatError` on them. Files without a
    ground-truth column report ``median_error`` as NaN.
    """
    methods = list(methods)
    if not methods:
        raise ValueError("need at least one method")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}, expected one of {METHODS}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"each method may be named once, got {methods}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    configs = {"hsolo": hsolo_config, "ransac": ransac_config}
    if isinstance(source, SceneSweep):
        return _run_synthetic(source, methods, trials, configs, seed, workers)
    if isinstance(source, LoadedCorrespondences):
        return _run_file(source, methods, trials, configs, seed, workers)
    raise TypeError(f"source must be SceneSweep or LoadedCorrespondences, got {type(source)}")


def _runnable(methods, c, configs, notes, what) -> list:
    """The methods to run for ``c`` expected inliers.

    hsolo is dropped, with a note, when c / n_f < w_f: its filtered-set
    assumption cannot hold there.
    """
    h_cfg = configs["hsolo"]
    if "hsolo" not in methods or c / h_cfg.n_f >= h_cfg.w_f:
        return list(methods)
    notes.append(f"hsolo skipped{what} give c/n_f = {c / h_cfg.n_f:.3f} < w_f = {h_cfg.w_f}")
    return [m for m in methods if m != "hsolo"]


def _summaries(methods, run_methods, w, records, trials) -> list[SummaryRow]:
    """One row per method; a method left out of ``run_methods`` skipped every trial."""
    return [_summarize(m, w, records, trials, 0 if m in run_methods else trials) for m in methods]


def _run_synthetic(sweep, methods, trials, configs, seed, workers) -> BenchmarkResult:
    notes: list[str] = []
    rates = []  # (w, methods run at w)
    args = []
    for wi, w in enumerate(sweep.inlier_rates):
        c = round(sweep.n_total * w)
        run_methods = _runnable(methods, c, configs, notes, f" at w={w}: expected inliers {c}")
        rates.append((w, run_methods))
        if run_methods:
            args.extend((sweep, w, wi, ti, seed, run_methods, configs) for ti in range(trials))
    batches = iter(_run_trials(_synthetic_trial, args, workers))
    records: list[TrialRecord] = []
    summary: list[SummaryRow] = []
    for w, run_methods in rates:
        batch = [rec for _ in range(trials) for rec in next(batches)] if run_methods else []
        records.extend(batch)
        summary.extend(_summaries(methods, run_methods, w, batch, trials))
    return BenchmarkResult(tuple(records), tuple(summary), tuple(notes))


def _run_file(loaded, methods, trials, configs, seed, workers) -> BenchmarkResult:
    notes: list[str] = []
    pool = loaded.byproduct_pool() if "hsolo" in methods else loaded.correspondences
    mask = loaded.inlier_mask
    run_methods = methods
    if mask is not None:
        c = int(mask.sum())
        w_true = float(mask.mean())
        run_methods = _runnable(methods, c, configs, notes, f": {c} flagged inliers")
        eval_pool = pool[mask]
    else:
        w_true = float("nan")
        eval_pool = pool
        notes.append("no ground-truth column: success judged by clustering mean errors")
    held_out = pool_arrays(eval_pool)

    args = [(pool, held_out, w_true, ti, seed, run_methods, configs) for ti in range(trials)]
    batches = _run_trials(_file_trial, args, workers) if run_methods else []
    records = [rec for batch in batches for rec in batch]
    if mask is None and records:
        records = _cluster_success(records, run_methods)
    summary = _summaries(methods, run_methods, w_true, records, trials)
    if mask is None:
        # held-out errors span every row, outliers included: a clustering key, not a fit error
        summary = [replace(row, median_error=math.nan) for row in summary]
    return BenchmarkResult(tuple(records), tuple(summary), tuple(notes))


def format_records(records, include_timing: bool = False) -> str:
    """Tab-separated trial table; timing column is 0 unless requested."""
    lines = ["method\tw_true\tsuccess\tmean_reproj_error\titerations\telapsed_s\tseed"]
    for r in records:
        elapsed = f"{r.elapsed:.6f}" if include_timing else "0"
        lines.append(
            f"{r.method}\t{r.w_true!r}\t{int(r.success)}\t{r.mean_reproj_error!r}"
            f"\t{r.iterations}\t{elapsed}\t{r.seed}"
        )
    return "\n".join(lines) + "\n"


def format_summary(result: BenchmarkResult, include_timing: bool = False) -> str:
    """Tab-separated per-(method, w) aggregates, with notes as # lines."""
    lines = [
        "method\tw\ttrials\tskipped\tsuccesses\tsuccess_rate"
        "\tmedian_iterations\tmedian_error\tmedian_elapsed_s"
    ]
    for row in result.summary:
        elapsed = f"{row.median_elapsed:.6f}" if include_timing else "0"
        lines.append(
            f"{row.method}\t{row.w_target!r}\t{row.trials}\t{row.skipped}\t{row.successes}"
            f"\t{row.success_rate!r}\t{row.median_iterations!r}\t{row.median_error!r}\t{elapsed}"
        )
    for note in result.notes:
        lines.append(f"# {note}")
    return "\n".join(lines) + "\n"
