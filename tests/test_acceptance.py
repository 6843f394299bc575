"""Acceptance suite: one test per shipping gate, tolerances pinned.

Each test is self-contained in what it asserts and prints a PASS line with
the measured values, so `pytest -v` reads as a checklist. Statistical tests
pin their seeds; the asserted margins were chosen against the seeded runs
and hold with room to spare.
"""

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hsolo import (
    AffineFeature,
    Correspondence,
    HsoloConfig,
    NoModelFound,
    Point2,
    RansacConfig,
    SceneSpec,
    SceneSweep,
    dlt_solve,
    estimate_epsilon_r,
    generate_scene,
    hsolo_estimate,
    random_scene_truth,
    required_iterations,
    reprojection_error,
    run_benchmark,
    single_match_homography,
)
from hsolo.analysis import dbscan_1d
from hsolo.bench import _held_out_pairs
from hsolo.estimator import _residuals_and_jacobian
from hsolo.geometry import pool_arrays, transfer_errors

from conftest import exact_pool, filter_by_model, kernel_filter, random_truth
from test_analysis import brute_force_dbscan, cluster_partition
from test_estimator import sorted_filter_oracle
from test_solvers import random_feature

BOUNDS = (640.0, 480.0)


def test_iteration_formula_matches_published_low_rate_count():
    """required_iterations(0.03, 4, 0.95) lands in [3.6e6, 3.8e6]."""
    k = required_iterations(0.03, 4, 0.95)
    assert 3_600_000 <= k <= 3_800_000
    print(f"PASS: iteration formula gives {k} at w=0.03, n=4, p=0.95")


def test_single_match_fixed_point_and_linear_part():
    """10,000 random sketches: fixed point < 1e-9 px, scale/angle within 1e-12."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst_err = 0.0
    worst_lin = 0.0
    for _ in range(10_000):
        c = Correspondence(random_feature(rng), random_feature(rng))
        h = single_match_homography(c)
        worst_err = max(worst_err, reprojection_error(h, c))
        m = h.m
        scale = math.hypot(m[0, 0], m[1, 0])
        angle = math.atan2(m[1, 0], m[0, 0])
        want_angle = c.b.angle - c.a.angle
        worst_lin = max(
            worst_lin,
            abs(scale - c.b.scale / c.a.scale),
            abs((angle - want_angle + math.pi) % (2 * math.pi) - math.pi),
        )
    elapsed = time.perf_counter() - t0
    assert worst_err < 1e-9
    assert worst_lin < 1e-12
    assert elapsed < 1.0
    print(
        f"PASS: 10,000 sketches, worst fixed-point error {worst_err:.2e} px, "
        f"worst scale/angle error {worst_lin:.2e}, {elapsed:.2f} s"
    )


def test_dlt_recovers_exact_minimal_samples():
    """1,000 random homographies recovered from 4 exact corners, < 1e-9 px."""
    rng = np.random.default_rng(13)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        truth = random_truth(rng)
        corners = [
            Point2(60.0 + rng.uniform(-10, 10), 55.0 + rng.uniform(-10, 10)),
            Point2(585.0 + rng.uniform(-10, 10), 70.0 + rng.uniform(-10, 10)),
            Point2(575.0 + rng.uniform(-10, 10), 420.0 + rng.uniform(-10, 10)),
            Point2(70.0 + rng.uniform(-10, 10), 415.0 + rng.uniform(-10, 10)),
        ]
        pool = exact_pool(truth, corners)
        h = dlt_solve(pool)
        src, dst = pool_arrays(pool)
        worst = max(worst, float(transfer_errors(h.m, src, dst).max()))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    print(f"PASS: 1,000 minimal DLT solves, worst error {worst:.2e} px, {elapsed:.2f} s")


def test_filtered_sets_from_inlier_seeds_are_enriched():
    """At w=0.10, n=500: >= 80% of inlier-seeded filtered sets reach 0.7 purity."""
    t0 = time.perf_counter()
    base = np.random.SeedSequence(2024)
    hits = 0
    fractions = []
    for trial_ss in base.spawn(500):
        rng = np.random.default_rng(trial_ss)
        truth = random_scene_truth(rng, BOUNDS)
        spec = SceneSpec(
            truth=truth,
            image_bounds=BOUNDS,
            n_total=500,
            inlier_rate=0.10,
            seed=int(trial_ss.generate_state(1, np.uint64)[0]),
        )
        pool, mask = generate_scene(spec)
        inlier_idx = np.flatnonzero(mask)
        seed_corr = pool[int(inlier_idx[rng.integers(len(inlier_idx))])]
        idx, _, _ = filter_by_model(single_match_homography(seed_corr), pool, 21)
        frac = float(mask[idx].mean())
        fractions.append(frac)
        if frac >= 0.7:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 0.80 * 500
    assert elapsed < 10.0
    print(
        f"PASS: filtered-set purity >= 0.7 in {hits}/500 draws "
        f"(median fraction {statistics.median(fractions):.2f}), {elapsed:.1f} s"
    )


def test_low_inlier_rate_dominance_sweep():
    """Capped at 1e4 iterations: seeded method >= 80% at w=0.05 where the
    4-point baseline collapses (<= 10%); both >= 95% at w=0.40."""
    t0 = time.perf_counter()
    sweep = SceneSweep(BOUNDS, 500, (0.03, 0.05, 0.10, 0.20, 0.40))
    res = run_benchmark(
        sweep,
        ["hsolo", "ransac"],
        100,
        HsoloConfig(max_outer_iterations=10_000),
        RansacConfig(max_iterations=10_000),
        seed=77,
    )
    rates = {(row.method, row.w_target): row.success_rate for row in res.summary}
    elapsed = time.perf_counter() - t0
    assert rates[("hsolo", 0.05)] >= 0.80
    assert rates[("ransac", 0.05)] <= 0.10
    assert rates[("hsolo", 0.40)] >= 0.95
    assert rates[("ransac", 0.40)] >= 0.95
    assert elapsed < 120.0
    table = "  ".join(
        f"w={w:.2f}: {rates[('hsolo', w)]:.2f}/{rates[('ransac', w)]:.2f}"
        for w in (0.03, 0.05, 0.10, 0.20, 0.40)
    )
    print(f"PASS: success rates (seeded/baseline) {table}, {elapsed:.0f} s")


def _first_success_iteration(truth, pool, cfg):
    """Outer iteration of the first improvement whose model fits a held-out grid."""
    try:
        res = hsolo_estimate(pool, cfg)
    except NoModelFound:
        return None
    eval_a, eval_b = _held_out_pairs(truth, BOUNDS)
    for imp in res.history:
        errs = transfer_errors(imp.model.m, eval_a, eval_b)
        if float(np.mean(errs)) < 2.0:
            return imp.iteration
    return None


def test_outer_iteration_budget_with_and_without_byproduct_noise():
    """Median outer iterations to first success stays within the single-draw
    budget; with byproduct noise, within the budget at a 0.7-scaled rate."""
    t0 = time.perf_counter()
    w = 0.10
    base = np.random.SeedSequence(55)
    medians = {}
    for noisy in (False, True):
        firsts = []
        for trial_ss in base.spawn(200):
            rng = np.random.default_rng(trial_ss)
            truth = random_scene_truth(rng, BOUNDS)
            spec = SceneSpec(
                truth=truth,
                image_bounds=BOUNDS,
                n_total=500,
                inlier_rate=w,
                scale_noise_sigma=0.1 if noisy else 0.0,
                angle_noise_sigma=0.05 if noisy else 0.0,
                seed=int(rng.integers(2**63)),
            )
            pool, _ = generate_scene(spec)
            first = _first_success_iteration(truth, pool, HsoloConfig(seed=int(rng.integers(2**63))))
            if first is not None:
                firsts.append(first)
        assert len(firsts) >= 190  # nearly every trial succeeds
        medians[noisy] = statistics.median(firsts)
    clean_budget = required_iterations(w, 1, 0.95)
    noisy_budget = required_iterations(0.7 * w, 1, 0.95)
    elapsed = time.perf_counter() - t0
    assert medians[False] <= clean_budget
    assert medians[True] <= noisy_budget
    assert elapsed < 60.0
    print(
        f"PASS: median first-success outer iterations {medians[False]:.0f} <= {clean_budget} "
        f"(clean), {medians[True]:.0f} <= {noisy_budget} (noisy byproducts), {elapsed:.0f} s"
    )


def test_refinement_quality_on_noisy_scenes():
    """With 1 px target noise the polish never increases the squared-error cost
    of the consensus model on its inliers, beats it on mean error in aggregate,
    and lands under 2 px mean inlier error in >= 95% of successful trials."""
    t0 = time.perf_counter()
    base = np.random.SeedSequence(911)
    cost_violations = 0
    sub_two_px = 0
    successes = 0
    mean_refined = []
    mean_consensus = []
    for trial_ss in base.spawn(100):
        rng = np.random.default_rng(trial_ss)
        truth = random_scene_truth(rng, BOUNDS)
        spec = SceneSpec(
            truth=truth,
            image_bounds=BOUNDS,
            n_total=500,
            inlier_rate=0.10,
            pixel_noise_sigma=1.0,
            seed=int(rng.integers(2**63)),
        )
        pool, _ = generate_scene(spec)
        try:
            res = hsolo_estimate(pool, HsoloConfig(seed=int(rng.integers(2**63))))
        except NoModelFound:
            continue
        successes += 1
        src, dst = pool_arrays(pool)
        consensus = res.history[-1].model
        cons_errs = transfer_errors(consensus.m, src, dst)
        idx = np.flatnonzero(cons_errs <= 4.0)
        refined_errs = transfer_errors(res.model.m, src, dst)
        if float(np.sum(refined_errs[idx] ** 2)) > float(np.sum(cons_errs[idx] ** 2)):
            cost_violations += 1
        mean_refined.append(float(np.mean(refined_errs[idx])))
        mean_consensus.append(float(np.mean(cons_errs[idx])))
        if float(np.mean(refined_errs[res.inlier_indices])) < 2.0:
            sub_two_px += 1
    elapsed = time.perf_counter() - t0
    assert successes >= 95
    assert cost_violations == 0
    assert np.mean(mean_refined) <= np.mean(mean_consensus)
    assert sub_two_px >= 0.95 * successes
    assert elapsed < 60.0
    print(
        f"PASS: {successes} trials, 0 cost increases, mean inlier error "
        f"{np.mean(mean_refined):.3f} px (consensus {np.mean(mean_consensus):.3f}), "
        f"< 2 px in {sub_two_px}/{successes}, {elapsed:.0f} s"
    )


SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _cli(args, tmp_path):
    """Run ``python -m hsolo`` from ``tmp_path`` against this checkout's ``src``.

    The child starts in a temp directory so no command can write into the
    repo; a relative ``PYTHONPATH`` entry would not resolve there, so the
    absolute ``src`` path goes first and any inherited entries follow it.
    """
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC_DIR), inherited]))}
    argv = [sys.executable, "-m", "hsolo", *args]
    proc = subprocess.run(argv, capture_output=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, (
        f"{argv} exited {proc.returncode}; stderr:\n{proc.stderr.decode()}"
    )
    return proc.stdout


def test_cli_output_is_deterministic(tmp_path):
    """Fixed seeds give byte-identical CLI output across runs and worker counts."""
    t0 = time.perf_counter()
    scene = tmp_path / "scene.csv"
    gen = ["generate", str(scene), "--n", "300", "--w", "0.2", "--seed", "19"]
    _cli(gen, tmp_path)
    first_bytes = scene.read_bytes()
    _cli(gen, tmp_path)
    assert scene.read_bytes() == first_bytes

    solve = ["solve", str(scene), "--method", "hsolo", "--seed", "3"]
    assert _cli(solve, tmp_path) == _cli(solve, tmp_path)
    solve_r = ["solve", str(scene), "--method", "ransac", "--seed", "3"]
    assert _cli(solve_r, tmp_path) == _cli(solve_r, tmp_path)

    bench = [
        "bench", "--w", "0.1,0.3", "--n", "300", "--trials", "5",
        "--methods", "hsolo,ransac", "--max-iterations", "10000", "--seed", "6",
    ]
    single = _cli([*bench, "--workers", "1"], tmp_path)
    assert _cli([*bench, "--workers", "4"], tmp_path) == single
    assert _cli([*bench, "--workers", "1"], tmp_path) == single

    theory = ["theory", "--w", "0.03,0.1,0.4", "--n-values", "4,8"]
    assert _cli(theory, tmp_path) == _cli(theory, tmp_path)

    calibrate = ["calibrate-epsilon-r", str(scene)]
    assert _cli(calibrate, tmp_path) == _cli(calibrate, tmp_path)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS: generate/solve/bench/theory/calibrate byte-stable, {elapsed:.0f} s")


def test_oracle_equivalences():
    """Filter vs full sort (10k), clustering vs brute force (1k), threshold
    estimate vs percentile oracle (1k), analytic Jacobian vs differences."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)

    for _ in range(10_000):
        errors = np.round(rng.uniform(0, 10, size=rng.integers(5, 60)), 1)
        n_f = int(rng.integers(5, 30))
        idx, median = kernel_filter(errors, n_f)
        want_idx, want_err = sorted_filter_oracle(errors, n_f)
        assert idx.tolist() == want_idx
        assert median == float(np.median(want_err))

    for _ in range(1000):
        n = int(rng.integers(1, 50))
        values = np.round(rng.uniform(0, 20, size=n), 1)
        eps = float(rng.uniform(0.1, 3.0))
        min_pts = int(rng.integers(1, 8))
        res = dbscan_1d(values, eps=eps, min_pts=min_pts)
        want = brute_force_dbscan(values, eps, min_pts)
        assert cluster_partition(res.labels) == cluster_partition(want)

    for _ in range(1000):
        errors = rng.uniform(0, 30, size=rng.integers(4, 300))
        q1, q3 = np.percentile(errors, [25, 75])
        want = q3 + 3.0 * (q3 - q1)
        assert abs(estimate_epsilon_r(errors) - want) <= 1e-9 * max(1.0, abs(want))

    src = rng.uniform(0, 640, size=(12, 2))
    dst = rng.uniform(0, 480, size=(12, 2))
    worst = 0.0
    for _ in range(10):
        params = np.array(
            [
                1.0 + rng.uniform(-0.2, 0.2),
                rng.uniform(-0.2, 0.2),
                rng.uniform(-30, 30),
                rng.uniform(-0.2, 0.2),
                1.0 + rng.uniform(-0.2, 0.2),
                rng.uniform(-30, 30),
                rng.uniform(-1e-4, 1e-4),
                rng.uniform(-1e-4, 1e-4),
            ]
        )
        _, jac = _residuals_and_jacobian(params, src, dst)
        fd = np.empty_like(jac)
        h = 1e-6
        for j in range(8):
            step = np.zeros(8)
            step[j] = h
            r_plus, _ = _residuals_and_jacobian(params + step, src, dst)
            r_minus, _ = _residuals_and_jacobian(params - step, src, dst)
            fd[:, j] = (r_plus - r_minus) / (2 * h)
        scale = np.maximum(1.0, np.abs(fd))
        worst = max(worst, float(np.max(np.abs(jac - fd) / scale)))
    assert worst < 1e-5

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"PASS: 10k filter, 1k clustering, 1k threshold oracles exact; "
        f"Jacobian vs differences {worst:.1e}, {elapsed:.0f} s"
    )
