"""Block seed evaluation against the one-seed-at-a-time reference loop.

``hsolo_estimate`` computes sketches, pool errors and gate medians for a block
of seeds at once and then replays the block in order. The reference below is
the per-seed loop it replaced, kept verbatim apart from names: the two must
agree bit for bit on every field of the result, history included.
"""

import heapq
import math

import numpy as np
import pytest

from hsolo import (
    AffineFeature,
    Correspondence,
    HsoloConfig,
    NoModelFound,
    Point2,
    SingularMatrix,
    hsolo_estimate,
    refine_model,
)
from hsolo.estimator import _filtered_from_errors, _seed_block, seed_medians
from hsolo.geometry import as_pool, pool_arrays, transfer_errors
from hsolo.robust import EstimationResult, Improvement, RansacConfig, ransac_homography, required_iterations
from hsolo.solvers import single_match_homography

from conftest import make_byproduct_correspondence, random_points, random_truth


def _reference_filter(errors: np.ndarray, n_f: int):
    take = min(n_f, errors.shape[0])
    pairs = heapq.nsmallest(take, zip(errors.tolist(), range(errors.shape[0])))
    idx = np.fromiter((i for _, i in pairs), dtype=np.intp, count=take)
    errs = np.fromiter((e for e, _ in pairs), dtype=np.float64, count=take)
    return idx, errs, float(np.median(errs))


def reference_hsolo_estimate(pool, config: HsoloConfig) -> EstimationResult:
    """One seed per outer iteration: sketch, full-pool errors, heap filter, gate."""
    n = len(pool)
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    shuffled = [pool[i] for i in perm]
    src, dst = pool_arrays(shuffled)

    def outer_budget(w: float) -> int:
        scaled = min(1.0, w * config.inlier_scaling)
        return required_iterations(scaled, 1, config.p, config.max_outer_iterations)

    k = outer_budget(1.0 / n)
    best = None
    best_support = 0
    history = []
    it = 0
    while it < min(k, n):
        seed_corr = shuffled[it]
        inner_seed = int(rng.integers(0, 2**63))
        it += 1
        h_prime = single_match_homography(seed_corr)
        idx, _, median = _reference_filter(transfer_errors(h_prime.m, src, dst), config.n_f)
        if not median <= config.epsilon_r:
            continue
        inner_config = RansacConfig(
            epsilon=config.epsilon, p=config.p, sample_size=4, seed=inner_seed
        )
        try:
            inner = ransac_homography([shuffled[j] for j in idx], shuffled, config.w_f, inner_config)
        except NoModelFound:
            continue
        if inner.support > best_support:
            best = inner
            best_support = inner.support
            k = min(k, outer_budget(min(1.0, inner.support / n)))
            history.append(Improvement(it, inner.support, k, inner.model))

    if best is None:
        raise NoModelFound("no seed correspondence led to a model with support >= 4")

    model = best.model
    inlier_idx = best.inlier_indices
    refinement = refine_model(model, [shuffled[j] for j in inlier_idx])
    if not refinement.degraded:
        errs = transfer_errors(refinement.model.m, src, dst)
        refined_idx = np.flatnonzero(errs <= config.epsilon)
        if refined_idx.size >= 4:
            model = refinement.model
            inlier_idx = refined_idx

    return EstimationResult(
        model=model,
        inlier_indices=np.sort(perm[inlier_idx]),
        support=int(inlier_idx.size),
        iterations_run=it,
        k_final=k,
        elapsed=0.0,
        history=tuple(history),
    )


def noisy_pool(n: int, w: float, seed: int, duplicated: bool = False) -> list:
    """Pool with at least 4 noisy inliers; ``duplicated`` repeats its first half."""
    rng = np.random.default_rng(seed)
    truth = random_truth(rng)
    n_in = max(4, round(w * n))
    pool = []
    for p in random_points(rng, n_in):
        c = make_byproduct_correspondence(truth, p, rng)
        b = c.b
        moved = Point2(b.p.u + rng.normal(0.0, 0.5), b.p.v + rng.normal(0.0, 0.5))
        scale = b.scale * math.exp(rng.normal(0.0, 0.05))
        pool.append(Correspondence(c.a, AffineFeature(moved, scale, b.angle + rng.normal(0.0, 0.05))))
    for a, b in zip(random_points(rng, n - n_in), random_points(rng, n - n_in)):
        scales = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=2))
        angles = rng.uniform(-math.pi, math.pi, size=2)
        pool.append(
            Correspondence(AffineFeature(a, scales[0], angles[0]), AffineFeature(b, scales[1], angles[1]))
        )
    pool = [pool[i] for i in rng.permutation(n)]
    if duplicated:
        half = n // 2
        pool[half : 2 * half] = pool[:half]
    return pool


def _outcome(fn, pool, config):
    try:
        r = fn(pool, config)
    except NoModelFound:
        return "NoModelFound"
    return (
        r.model.m.tobytes(),
        r.inlier_indices.tolist(),
        r.support,
        r.iterations_run,
        r.k_final,
        [(h.iteration, h.support, h.k_after, h.model.m.tobytes()) for h in r.history],
    )


@pytest.mark.parametrize("n", [12, 200, 500])
@pytest.mark.parametrize("w", [0.03, 0.05, 0.2, 0.4])
def test_block_loop_matches_reference_bit_for_bit(n, w):
    found = 0
    for seed, duplicated in ((1, False), (2, True)):
        pool = noisy_pool(n, w, 100 * n + round(100 * w) + seed, duplicated)
        for n_f in (5, 20, 21):
            config = HsoloConfig(n_f=n_f, seed=seed)
            want = _outcome(reference_hsolo_estimate, pool, config)
            assert _outcome(hsolo_estimate, pool, config) == want, (seed, duplicated, n_f)
            found += want != "NoModelFound"
    assert found > 0


def test_seed_block_errors_and_medians_match_scalar_path():
    pool = noisy_pool(200, 0.2, 7, duplicated=True)
    src, dst = pool_arrays(pool)
    errors, medians = _seed_block(as_pool(pool), src, dst, 20)
    for i, c in enumerate(pool):
        want = transfer_errors(single_match_homography(c).m, src, dst)
        assert errors[i].tobytes() == want.tobytes()
        assert medians[i] == _reference_filter(want, 20)[2]
    np.testing.assert_array_equal(seed_medians(pool, pool, 20), medians)


def test_seed_block_follows_homography_at_its_limits():
    # scale ratios across the determinant cut-off, coordinates past the
    # canonical-scaling switch, and ratios that underflow or overflow
    seeds = [
        Correspondence(
            AffineFeature(Point2(600.0, 400.0), 1.0, 0.2), AffineFeature(Point2(10.0, 10.0), r, -0.1)
        )
        for r in np.logspace(-4.5, -4.0, 41)
    ]
    seeds += [
        Correspondence(AffineFeature(Point2(u, 3.0), 1.0, 0.0), AffineFeature(Point2(5.0, 1.0), 1.5, 1.0))
        for u in (4e11, 1e12, 3e12, 1e200)
    ]
    seeds += [
        Correspondence(AffineFeature(Point2(1.0, 2.0), s1, 0.0), AffineFeature(Point2(3.0, 4.0), s2, 0.5))
        for s1, s2 in ((1e-200, 1e200), (1e200, 1e-200), (1e-300, 1e-300))
    ]
    pool = noisy_pool(50, 0.2, 9)
    src, dst = pool_arrays(pool)
    with np.errstate(over="ignore"):  # Homography's norm of the 1e200 sketch
        errors, medians = _seed_block(as_pool(seeds), src, dst, 21)
    usable = 0
    for i, c in enumerate(seeds):
        try:
            with np.errstate(over="ignore"):
                m = single_match_homography(c).m
        except (SingularMatrix, ValueError):
            assert np.isposinf(errors[i]).all() and medians[i] == math.inf
            continue
        usable += 1
        want = transfer_errors(m, src, dst)
        want[np.isnan(want)] = np.inf
        assert errors[i].tobytes() == want.tobytes()
        assert medians[i] == _reference_filter(want, 21)[2]
    assert 0 < usable < len(seeds)


def test_filter_matches_heap_reference_with_ties_and_infinities():
    rng = np.random.default_rng(3)
    for _ in range(500):
        errors = np.round(rng.uniform(0, 5, size=rng.integers(1, 50)), 0)
        errors[rng.random(errors.shape[0]) < 0.2] = np.inf
        n_f = int(rng.integers(1, 30))
        idx, errs, median = _reference_filter(errors, n_f)
        fs = _filtered_from_errors(errors, n_f)
        assert fs.indices.tolist() == idx.tolist()
        assert fs.errors.tobytes() == errs.tobytes()
        assert fs.median_error == median


def test_nan_errors_rank_last_like_infinity():
    fs = _filtered_from_errors(np.array([np.nan, 1.0, np.inf, 0.5, np.nan]), 4)
    assert fs.indices.tolist() == [3, 1, 0, 2]
    assert fs.errors.tolist() == [0.5, 1.0, math.inf, math.inf]
    assert fs.median_error == math.inf
