"""The three benchmark workloads: inputs, one operation, and its checks.

Each workload is a closed loop with one caller in one process: the next
operation starts when the previous one has returned. Inputs are made from the
workload seed only; the package sees nothing but the generated pools and
files. Every operation is checked, and a broken contract is reported as a
problem that fails the run.

- ``lowrate-n500``: library calls on pools of n=500, w=0.05, read from files
  once at set-up. hsolo time here is the per-seed sketch/filter/gate loop;
  RANSAC runs into its 10,000-draw cap, so its time is the per-draw solve and
  score.
- ``filepool-n2000``: ``hsolo solve`` on n=2000, w=0.4 files. Parsing, the
  full-pool array rebuilds inside every inner RANSAC, scoring and the refit
  over about 800 inliers dominate; the seed loop is short.
- ``sweep-threads2``: ``hsolo bench`` over five inlier rates on 2 worker
  threads, the only workload with scene generation on the timed path.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hsolo import bench, cli, estimator, fileio, geometry, robust, synthetic
from hsolo.exceptions import NoModelFound

BOUNDS = (640.0, 480.0)
EPSILON = 4.0  # the default inlier threshold of both configs and the CLI
MAX_DRAWS = 10_000  # RANSAC cap, as in the bench command of the README
GRID = 5  # held-out exact-truth grid is GRID x GRID, as in hsolo.bench
# Solves of one trial on the single-caller workloads, each with its own
# estimator seed. A second hsolo solve per pool doubles the samples behind its
# percentiles at little cost, and leaves RANSAC over 100 solves in 30 s.
METHODS_PER_TRIAL = ("hsolo", "hsolo", "ransac")


@dataclass(frozen=True)
class Scene:
    pool: list
    src: np.ndarray
    dst: np.ndarray
    grid_a: np.ndarray
    grid_b: np.ndarray
    path: str


@dataclass(frozen=True)
class Solve:
    method: str
    ms: float
    success: bool
    err_px: float
    fingerprint: bytes  # equal for equal results (model, inliers, flags)


@dataclass
class OpResult:
    ms: float  # wall time of the timed calls, checks excluded
    trials: int  # scenes solved by both methods
    solves: list[Solve] = field(default_factory=list)
    failed: int = 0  # solves that ended in an error instead of a result
    problems: list[str] = field(default_factory=list)


def _seed(*key: int) -> int:
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0] >> 1)


def held_out_grid(truth: geometry.Homography) -> tuple[np.ndarray, np.ndarray]:
    """Exact correspondences of the truth on a grid no estimator sees."""
    width, height = BOUNDS
    gx, gy = np.meshgrid(
        np.linspace(0.1 * width, 0.9 * width, GRID), np.linspace(0.1 * height, 0.9 * height, GRID)
    )
    a = np.column_stack([gx.ravel(), gy.ravel(), np.ones(GRID * GRID)])
    b = a @ truth.m.T
    return a[:, :2], b[:, :2] / b[:, 2:]


def file_scenes(seed: int, count: int, n: int, w: float, noise: tuple, workdir: Path, call):
    """Generate ``count`` scenes, write each to a file and read it back.

    Returns the scenes, holding the pools as loaded, and a problem for every
    file whose rows differ from the generated pool.
    """
    scenes, problems = [], []
    for k in range(count):
        truth = synthetic.random_scene_truth(np.random.default_rng(_seed(seed, k, 0)), BOUNDS)
        spec = synthetic.SceneSpec(
            truth=truth,
            image_bounds=BOUNDS,
            n_total=n,
            inlier_rate=w,
            pixel_noise_sigma=noise[0],
            scale_noise_sigma=noise[1],
            angle_noise_sigma=noise[2],
            seed=_seed(seed, k, 1),
        )
        pool, mask = call("synthetic.generate_scene", "perfbench", synthetic.generate_scene, spec)
        path = str(workdir / f"pool{k}.csv")
        fileio.save_correspondences(path, pool, mask)  # a span when traced
        loaded = call("fileio.load_correspondences", "perfbench", fileio.load_correspondences, path)
        if loaded.correspondences != pool or not np.array_equal(loaded.inlier_mask, mask):
            problems.append(f"{path}: loaded rows differ from the generated pool")
        src, dst = geometry.pool_arrays(loaded.correspondences)
        scenes.append(Scene(loaded.correspondences, src, dst, *held_out_grid(truth), path))
    return scenes, problems


def judge(scene: Scene, method: str, ms: float, m, inliers, support, fingerprint) -> tuple[Solve, list[str]]:
    """Check one returned model against the contract and the held-out truth."""
    if m is None:
        return Solve(method, ms, False, math.inf, fingerprint), []
    problems = []
    inliers = np.asarray(inliers, dtype=np.intp)
    if support != inliers.size:
        problems.append(f"{method}: support {support} != {inliers.size} inlier indices")
    if inliers.size and (np.any(np.diff(inliers) <= 0) or inliers[0] < 0 or inliers[-1] >= len(scene.pool)):
        problems.append(f"{method}: inlier indices not sorted, unique and in range")
    else:
        errs = geometry.transfer_errors(m, scene.src[inliers], scene.dst[inliers])
        if not np.all(errs <= EPSILON):
            problems.append(f"{method}: reported inlier with error {float(np.max(errs))} > {EPSILON}")
    with np.errstate(over="ignore", invalid="ignore"):
        err = float(np.mean(geometry.transfer_errors(m, scene.grid_a, scene.grid_b)))
    if math.isnan(err):
        err = math.inf
    solve = Solve(method, ms, err < bench.SUCCESS_ERROR_PX, err, fingerprint)
    return solve, problems


class LowRate:
    """Library caller at the paper's headline rate, pools read once at set-up."""

    name = "lowrate-n500"
    n, w, noise = 500, 0.05, (0.5, 0.05, 0.05)
    scenes = 64  # pools built at set-up, reused round-robin with fresh estimator seeds

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def build(self, call):
        return file_scenes(self.seed, self.scenes, self.n, self.w, self.noise, self.workdir, call)

    def op(self, scenes: list[Scene], i: int, call) -> OpResult:
        scene = scenes[i % len(scenes)]
        out = OpResult(0.0, 1)
        for k, method in enumerate(METHODS_PER_TRIAL):
            seed = _seed(self.seed, i, k + 2)
            if method == "hsolo":
                name, fn = "estimator.hsolo_estimate", estimator.hsolo_estimate
                args = (scene.pool, estimator.HsoloConfig(seed=seed))
            else:
                name, fn = "robust.ransac_homography", robust.ransac_homography
                cfg = robust.RansacConfig(max_iterations=MAX_DRAWS, seed=seed)
                args = (scene.pool, scene.pool, min(1.0, cfg.sample_size / len(scene.pool)), cfg)
            t0 = time.perf_counter()
            try:
                res = call(name, "perfbench", fn, *args)
            except NoModelFound:
                res = None
            ms = (time.perf_counter() - t0) * 1e3
            out.ms += ms
            if res is None:
                solve, problems = judge(scene, method, ms, None, None, None, b"none")
            else:
                fp = res.model.m.tobytes() + res.inlier_indices.tobytes()
                solve, problems = judge(scene, method, ms, res.model.m, res.inlier_indices, res.support, fp)
            out.solves.append(solve)
            out.problems.extend(problems)
        return out


def _read_result(path: Path) -> tuple[np.ndarray, np.ndarray, int]:
    fields = dict(line.split(":", 1) for line in path.read_text().splitlines()[1:])
    m = np.array([float(v) for v in fields["model"].split()]).reshape(3, 3)
    inliers = np.array([int(v) for v in fields["inliers"].split()], dtype=np.intp)
    return m, inliers, int(fields["support"])


def _run_cli(argv: list[str], call) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = call("cli.main", "perfbench", cli.main, argv)
    return rc, out.getvalue(), err.getvalue(), (time.perf_counter() - t0) * 1e3


class FilePool:
    """CLI caller solving large, inlier-rich pools from correspondence files."""

    name = "filepool-n2000"
    n, w, noise = 2000, 0.4, (1.0, 0.1, 0.05)
    files = 48

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def build(self, call):
        return file_scenes(self.seed, self.files, self.n, self.w, self.noise, self.workdir, call)

    def op(self, scenes: list[Scene], i: int, call) -> OpResult:
        scene = scenes[i % len(scenes)]
        out = OpResult(0.0, 1)
        for k, method in enumerate(METHODS_PER_TRIAL):
            result_path = self.workdir / f"result-{method}.txt"
            result_path.unlink(missing_ok=True)
            seed = str(_seed(self.seed, i, k + 2))
            argv = ["solve", scene.path, "--method", method, "--seed", seed, "-o", str(result_path)]
            rc, _, err, ms = _run_cli(argv, call)
            out.ms += ms
            if rc == 0:
                m, inliers, support = _read_result(result_path)
                solve, problems = judge(scene, method, ms, m, inliers, support, result_path.read_bytes())
            else:
                solve, problems = judge(scene, method, ms, None, None, None, f"rc={rc}".encode())
                if rc != 1:
                    out.failed += 1
                    problems.append(f"{method}: solve exited {rc}: {err.strip()}")
            out.solves.append(solve)
            out.problems.extend(problems)
        return out


class Sweep:
    """Researcher's ``hsolo bench`` sweep over inlier rates on 2 threads."""

    name = "sweep-threads2"
    rates = (0.03, 0.05, 0.1, 0.2, 0.4)
    trials = 8  # per inlier rate and command, so each rate keeps both workers busy
    workers = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.records = workdir / "records.tsv"

    def build(self, call):
        return None, []

    def op(self, _, i: int, call) -> OpResult:
        argv = [
            "bench", "--w", ",".join(map(str, self.rates)), "--n", "500",
            "--pixel-noise", "0.5", "--scale-noise", "0.05", "--angle-noise", "0.05",
            "--max-iterations", str(MAX_DRAWS), "--workers", str(self.workers),
            "--trials", str(self.trials), "--seed", str(_seed(self.seed, i)),
            "--timing", "--records-out", str(self.records),
        ]
        self.records.unlink(missing_ok=True)
        rc, stdout, err, ms = _run_cli(argv, call)
        out = OpResult(ms, 0)
        if rc != 0:
            out.failed += 1
            out.problems.append(f"bench exited {rc}: {err.strip()}")
            return out
        rows = {}
        for line in stdout.splitlines()[1:]:
            if not line.startswith("#"):
                f = line.split("\t")
                rows[(f[0], float(f[1]))] = (int(f[2]), int(f[3]), int(f[4]))
        expected = {(m, w) for m in bench.METHODS for w in self.rates}
        if set(rows) != expected:
            out.problems.append(f"summary rows {sorted(rows)} != {sorted(expected)}")
            return out
        seen = {key: [0, 0] for key in expected}
        for line in self.records.read_text().splitlines()[1:]:
            method, w_true, success, err_text, iterations, elapsed, _ = line.split("\t")
            w = min(self.rates, key=lambda r: abs(r - float(w_true)))
            ok, err_px = success == "1", float(err_text)
            seen[(method, w)][0] += 1
            seen[(method, w)][1] += ok
            if ok != (err_px < bench.SUCCESS_ERROR_PX):
                out.problems.append(f"{method} w={w}: success flag {ok} disagrees with error {err_px}")
            fp = "\t".join((method, w_true, success, err_text, iterations)).encode()
            out.solves.append(Solve(method, float(elapsed) * 1e3, ok, err_px, fp))
        for key, (trials, skipped, successes) in rows.items():
            if trials != self.trials or seen[key] != [trials - skipped, successes]:
                out.problems.append(f"{key}: summary {trials, skipped, successes} vs records {seen[key]}")
        out.trials = self.trials * len(self.rates)
        return out


WORKLOADS = {wl.name: wl for wl in (LowRate, FilePool, Sweep)}
