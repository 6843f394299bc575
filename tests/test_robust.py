"""Tests for the adaptive RANSAC estimator and its iteration-count formula.

The tiled support-counting kernel is checked against the one-buffer kernel it
replaced, kept below as ``reference_support_counts``, and the sample drawer
against the sort-based one, kept as ``reference_draw_distinct``.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hsolo import robust
from hsolo import (
    AffineFeature,
    Correspondence,
    Homography,
    NoModelFound,
    Point2,
    RansacConfig,
    project,
    ransac_homography,
    required_iterations,
)
from hsolo.geometry import SINGULARITY_RTOL, pool_arrays, transfer_errors
from hsolo.synthetic import SceneSpec, generate_scene, random_scene_truth

from conftest import exact_pool, pool_from_arrays, random_points, random_truth, result_fingerprint


def iterations_oracle(w: float, n: int, p: float) -> int:
    """Direct evaluation of the coupon-collector bound, no shared code paths."""
    success = w**n
    if success >= 1.0:
        return 1
    denom = math.log(1.0 - success)
    if denom == 0.0:
        return 10_000_000
    return max(1, math.ceil(math.log(1.0 - p) / denom))


def mixed_pool(rng, truth, n_inliers, n_outliers, width=640.0, height=480.0):
    """Exact inliers plus uniform outliers; returns (pool, inlier_index_set)."""
    pool = exact_pool(truth, random_points(rng, n_inliers, width, height))
    for _ in range(n_outliers):
        pool.append(
            Correspondence(
                AffineFeature(Point2(rng.uniform(0, width), rng.uniform(0, height)), 1.0, 0.0),
                AffineFeature(Point2(rng.uniform(0, width), rng.uniform(0, height)), 1.0, 0.0),
            )
        )
    order = rng.permutation(len(pool))
    shuffled = [pool[i] for i in order]
    inlier_set = {int(np.flatnonzero(order == i)[0]) for i in range(n_inliers)}
    return shuffled, inlier_set


class TestRequiredIterations:
    def test_low_rate_four_point_count(self):
        k = required_iterations(0.03, 4, 0.95)
        assert 3_600_000 <= k <= 3_800_000
        assert k == iterations_oracle(0.03, 4, 0.95)

    def test_certain_success_needs_one(self):
        assert required_iterations(1.0, 4, 0.95) == 1

    def test_coin_flip_single_draw(self):
        # ceil(ln 0.05 / ln 0.5) = ceil(4.32...) = 5
        assert required_iterations(0.5, 1, 0.95) == 5
        assert iterations_oracle(0.5, 1, 0.95) == 5

    def test_matches_oracle_over_grid(self):
        for w in (0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            for n in (1, 2, 4, 8):
                want = min(iterations_oracle(w, n, 0.95), 10_000_000)
                assert required_iterations(w, n, 0.95) == want, (w, n)

    def test_monotone_decreasing_in_rate(self):
        ks = [required_iterations(w, 4, 0.95) for w in np.linspace(0.02, 1.0, 50)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_cap_applies(self):
        assert required_iterations(0.01, 4, 0.999, max_iterations=1000) == 1000

    def test_vanishing_rate_hits_cap(self):
        assert required_iterations(1e-12, 4, 0.95) == 10_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            required_iterations(0.0, 4, 0.95)
        with pytest.raises(ValueError):
            required_iterations(1.5, 4, 0.95)
        with pytest.raises(ValueError):
            required_iterations(0.5, 0, 0.95)
        with pytest.raises(ValueError):
            required_iterations(0.5, 4, 1.0)
        with pytest.raises(ValueError):
            required_iterations(0.5, 4, 0.0)


class TestRansacConfig:
    def test_defaults(self):
        cfg = RansacConfig()
        assert cfg.epsilon == 4.0 and cfg.p == 0.95 and cfg.sample_size == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            RansacConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            RansacConfig(p=1.0)
        with pytest.raises(TypeError):
            RansacConfig(sample_size=3)
        with pytest.raises(TypeError):
            RansacConfig(sample_size=5)
        with pytest.raises(ValueError):
            RansacConfig(max_iterations=0)


def test_plain_start_rate_rejects_a_pool_smaller_than_a_sample(rng):
    pool = exact_pool(random_truth(rng), random_points(rng, 10))
    for n in range(4):
        # a ValueError naming the pool size, not a ZeroDivisionError from 4 / 0
        with pytest.raises(ValueError, match=f"sample pool has {n} < 4"):
            ransac_homography(pool[:n], pool[:n], None, RansacConfig())


def test_plain_start_rate_is_sample_size_over_pool_size(rng):
    truth = random_truth(rng)
    # outliers only: no model beats a support of 4, so the start rate sets k_final
    for n_inliers, n_outliers in ((4, 0), (10, 0), (0, 12), (20, 30), (15, 85)):
        pool, _ = mixed_pool(rng, truth, n_inliers, n_outliers)
        cfg = RansacConfig(seed=n_outliers, max_iterations=5000)
        got = ransac_homography(pool, pool, None, cfg)
        want = ransac_homography(pool, pool, min(1.0, 4 / len(pool)), cfg)
        assert result_fingerprint(got) == result_fingerprint(want)


class TestRansacHomography:
    def test_all_inliers_stop_after_one_iteration(self, rng):
        truth = random_truth(rng)
        pool = exact_pool(truth, random_points(rng, 20))
        res = ransac_homography(pool, pool, 0.9, RansacConfig(seed=3))
        assert res.support == 20
        assert res.iterations_run == 1
        assert res.k_final == 1
        np.testing.assert_allclose(res.model.m, truth.m, rtol=0, atol=1e-9)

    def test_singular_candidates_never_become_the_model(self, rng):
        # every target on one line: each 4-point fit is the rank-2 map
        # (u, v) -> (u + 3, 2u + 6), which fits all 30 points exactly
        src = np.array([(p.u, p.v) for p in random_points(rng, 30)])
        dst = np.column_stack([src[:, 0] + 3.0, 2.0 * src[:, 0] + 6.0])
        pool = pool_from_arrays(src, dst)
        with pytest.raises(NoModelFound):
            ransac_homography(pool, pool, 0.5, RansacConfig(seed=2, max_iterations=200))

    def test_reported_inliers_satisfy_threshold(self, rng):
        truth = random_truth(rng)
        pool, _ = mixed_pool(rng, truth, 30, 30)
        cfg = RansacConfig(epsilon=4.0, seed=11)
        res = ransac_homography(pool, pool, 0.4, cfg)
        src, dst = pool_arrays(pool)
        errs = transfer_errors(res.model.m, src, dst)
        assert np.all(errs[res.inlier_indices] <= cfg.epsilon)
        assert res.support == len(res.inlier_indices)
        assert np.all(np.diff(res.inlier_indices) > 0)

    def test_half_inliers_recovered_reliably(self, rng):
        """50 exact inliers among 100: the true structure wins nearly always."""
        truth = random_truth(rng)
        successes = 0
        adapted = []
        for trial in range(100):
            pool, inlier_set = mixed_pool(rng, truth, 50, 50)
            res = ransac_homography(pool, pool, 0.4, RansacConfig(epsilon=4.0, seed=trial))
            if inlier_set <= set(int(i) for i in res.inlier_indices):
                successes += 1
            adapted.append(res.k_final)
        assert successes >= 95
        # Once a support of ~50/100 is seen, the schedule collapses to the
        # count implied by w = 0.5 (about 46), far below the starting budget.
        assert np.median(adapted) <= iterations_oracle(0.5, 4, 0.95) + 1
        assert iterations_oracle(0.5, 4, 0.95) in (46, 47)

    def test_separate_sample_and_scoring_pools(self, rng):
        """Sampling from a clean subset while scoring the full pool."""
        truth = random_truth(rng)
        pool, inlier_set = mixed_pool(rng, truth, 50, 50)
        clean = sorted(inlier_set)[:4]
        res = ransac_homography([pool[i] for i in clean], pool, 0.9, RansacConfig(seed=5))
        # Model from 4 exact inliers scores the whole pool.
        assert res.support >= 50
        assert inlier_set <= set(int(i) for i in res.inlier_indices)
        # Support/|sample pool| >= 1 clamps the schedule to a single iteration.
        assert res.iterations_run == 1

    def test_degenerate_source_pool_raises(self, rng):
        pts = [Point2(5.0 * i, 5.0 * i) for i in range(10)]
        pool = exact_pool(Homography.translation(2.0, 1.0), pts)
        with pytest.raises(NoModelFound):
            ransac_homography(pool, pool, 0.5, RansacConfig(seed=0, max_iterations=200))

    def test_same_seed_reproduces_bitwise(self, rng):
        truth = random_truth(rng)
        pool, _ = mixed_pool(rng, truth, 40, 60)
        cfg = RansacConfig(seed=42)
        r1 = ransac_homography(pool, pool, 0.3, cfg)
        r2 = ransac_homography(pool, pool, 0.3, cfg)
        np.testing.assert_array_equal(r1.model.m, r2.model.m)
        np.testing.assert_array_equal(r1.inlier_indices, r2.inlier_indices)
        assert r1.iterations_run == r2.iterations_run
        assert r1.k_final == r2.k_final

    def test_history_is_monotone(self, rng):
        truth = random_truth(rng)
        pool, _ = mixed_pool(rng, truth, 40, 60)
        res = ransac_homography(pool, pool, 0.3, RansacConfig(seed=9))
        supports = [imp.support for imp in res.history]
        ks = [imp.k_after for imp in res.history]
        assert supports == sorted(supports)
        assert len(set(supports)) == len(supports)  # strict improvements only
        assert ks == sorted(ks, reverse=True)
        assert res.history[-1].support == res.support
        assert res.iterations_run <= res.k_final

    def test_small_pool_rejected(self, rng):
        truth = random_truth(rng)
        small = exact_pool(truth, random_points(rng, 3))
        with pytest.raises(ValueError):
            ransac_homography(small, small, 0.5, RansacConfig())

    def test_invalid_rate_rejected(self, rng):
        truth = random_truth(rng)
        pool = exact_pool(truth, random_points(rng, 10))
        with pytest.raises(ValueError):
            ransac_homography(pool, pool, 0.0, RansacConfig())
        with pytest.raises(ValueError):
            ransac_homography(pool, pool, 1.2, RansacConfig())


def reference_support_counts(models, valid, src_h, dst, epsilon):
    """The earlier kernel: one ``(c, 3, n)`` projection, bad points masked by assignment."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        proj = models @ src_h.T  # (c, 3, n)
        fro = np.sqrt((models**2).sum(axis=(1, 2)))
        w = proj[:, 2, :]
        bad = ~(np.abs(w) > SINGULARITY_RTOL * fro[:, None])
        w[bad] = 1.0
        d = proj[:, :2]
        d /= w[:, None]
        d -= dst.T
        d *= d
        e2 = d[:, 0] + d[:, 1]
        e2[bad] = np.inf
        counts = (e2 <= epsilon * epsilon).sum(axis=1)
    counts[~valid] = 0
    return counts.astype(np.int64)


SCORING = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def scoring_cases(draw):
    """Model batches around the model tile ``_TILE_ELEMENTS // n``; see ``scoring_case``."""
    n = draw(st.one_of(st.integers(1, 600), st.just(robust._TILE_ELEMENTS + 1)))
    tile = max(1, robust._TILE_ELEMENTS // n)
    c = draw(st.sampled_from(sorted({1, max(1, tile - 1), tile, 2 * tile + 1, 3 * tile - 1})))
    if n * c > 2_000_000:
        c = tile
    return scoring_case(draw, n, c)


@st.composite
def point_chunk_cases(draw):
    """Scoring pools around the point chunk ``_TILE_ELEMENTS // c``; see ``scoring_case``."""
    c = draw(st.one_of(st.integers(1, 300), st.sampled_from([11, 256, 2048, robust._TILE_ELEMENTS + 1])))
    chunk = max(1, robust._TILE_ELEMENTS // c)
    n = draw(st.sampled_from(sorted({max(1, chunk - 1), chunk, 2 * chunk + 1})))
    if n * c > 2_000_000:
        n = chunk
    return scoring_case(draw, n, c)


def scoring_case(draw, n, c):
    """n points, c models, with w exactly 0 or near the cut, NaN, inf and invalid rows.

    Points and translations are integers, so many errors are exact and some
    land on the threshold (a 3-4-5 offset at epsilon 5).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = rng.integers(-50, 700, size=(n, 2)).astype(float)
    dst = src + rng.integers(-5, 6, size=2)
    outliers = rng.random(n) < 0.5
    dst[outliers] = rng.integers(-50, 700, size=(int(outliers.sum()), 2))
    models = np.tile(np.eye(3), (c, 1, 1))
    models[:, :2, 2] = rng.integers(-5, 6, size=(c, 2))
    noisy = rng.random(c) < 0.3
    models[noisy] += rng.normal(0.0, 1e-3, size=(int(noisy.sum()), 3, 3))
    # third row (a, 0, delta - a * x0): w is about delta at a chosen point x0
    for i in np.flatnonzero(rng.random(c) < 0.3):
        a = float(rng.integers(1, 4)) * draw(st.sampled_from([1.0, 1e-6]))
        x0 = src[rng.integers(n), 0]
        fro = float(np.linalg.norm(models[i]))
        delta = SINGULARITY_RTOL * fro * draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0]))
        models[i, 2] = (a, 0.0, delta - a * x0)
    for i in np.flatnonzero(rng.random(c) < 0.1):
        models[i].flat[rng.integers(9)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    valid = rng.random(c) < 0.9
    epsilon = draw(st.sampled_from([1.0, 4.0, 5.0, 1e-3, 1e6]))
    src_h = np.column_stack([src, np.ones(n)])
    return models, valid, src_h, dst, epsilon


@SCORING
@given(case=scoring_cases())
def test_tiled_support_counts_match_the_reference(case):
    want = reference_support_counts(*case)
    got = robust._support_counts(*case)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@SCORING
@given(case=point_chunk_cases())
def test_point_chunked_support_counts_match_the_reference(case):
    want = reference_support_counts(*case)
    got = robust._support_counts(*case)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


BIG, FAR = 1e150, 1e200
X_GATE_EDGES = [  # (model, source point, target point, epsilon, expected count)
    (np.eye(3), (0.0, 0.0), (3.0, 0.0), 3.0, 1),  # dx**2 == epsilon**2, dy == 0: counts
    (np.eye(3), (0.0, 0.0), (3.0, 1.0), 3.0, 0),  # dx**2 == epsilon**2, dy != 0: does not
    (np.eye(3), (0.0, 0.0), (0.0, np.nan), 3.0, 0),  # finite x, NaN target y
    (np.eye(3), (0.0, 0.0), (0.0, np.inf), 3.0, 0),  # finite x, infinite target y
    ([[0, 0, BIG], [BIG, 0, 0], [0, 0, BIG]], (FAR, 0.0), (1.0, 0.0), 3.0, 0),  # y = +inf
    ([[0, 0, BIG], [BIG, 0, 0], [0, 0, BIG]], (-FAR, 0.0), (1.0, 0.0), 3.0, 0),  # y = -inf
    ([[0, 0, BIG], [BIG, BIG, 0], [0, 0, BIG]], (FAR, -FAR), (1.0, 0.0), 3.0, 0),  # y = NaN or inf
    ([[0, 0, BIG], [0, 0, 0], [0, 0, BIG]], (FAR, -FAR), (1.0, 0.0), 3.0, 1),  # same x and w, y = 0
    ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], (1.0, 2.0), (0.0, 0.0), 3.0, 0),  # w == 0, finite x
    ([[0, 0, 0], [0, 1, 0], [0, 0, 0]], (1.0, 2.0), (0.0, 0.0), 3.0, 0),  # w == 0, x == 0
    (np.eye(3) * 5e-324, (2.4, 0.0), (2.0, 0.0), 0.1, 1),  # subnormal model: x / w rounds to 2, not 2.4
]


def x_gate_edge_args(model, p, q, epsilon):
    """``_support_counts`` arguments for one model and one point."""
    return (
        np.array([model], dtype=float),
        np.ones(1, dtype=bool),
        np.array([[p[0], p[1], 1.0]]),
        np.array([q]),
        epsilon,
    )


def test_support_counts_at_the_edges_of_the_x_gate():
    """The x gate passes on dx**2 alone; y, w and the sum decide as the reference does.

    Model rows of 1e150 against a source coordinate of 1e200 overflow y to
    +inf or -inf (or, from two such terms of opposite sign, to NaN or an
    infinity, as the product rounds) while x and w stay finite, with w well
    above the singularity cut.
    """
    for model, p, q, epsilon, expected in X_GATE_EDGES:
        args = x_gate_edge_args(model, p, q, epsilon)
        got = robust._support_counts(*args)
        np.testing.assert_array_equal(got, reference_support_counts(*args))
        assert got.tolist() == [expected], (model, p, q)


def test_support_counts_of_an_empty_scoring_pool_are_zero():
    models = np.tile(np.eye(3), (3, 1, 1))
    args = (models, np.ones(3, dtype=bool), np.empty((0, 3)), np.empty((0, 2)), 4.0)
    np.testing.assert_array_equal(robust._support_counts(*args), reference_support_counts(*args))


def support_bounds(models, src_h, dst, epsilon):
    return robust._SupportBound(src_h, dst, epsilon)(models)


@st.composite
def bound_cases(draw):
    """``scoring_case``s, some models scaled to 1e150 and some points moved to 1e200."""
    models, valid, src_h, dst, epsilon = draw(st.one_of(scoring_cases(), point_chunk_cases()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        models[rng.random(len(models)) < 0.3] *= BIG
    if draw(st.booleans()):
        src_h[rng.integers(len(src_h)), rng.integers(2)] = FAR
    return models, valid, src_h, dst, epsilon


def assert_bounds_hold(case):
    models, _, src_h, dst, epsilon = case
    bounds = support_bounds(models, src_h, dst, epsilon)
    counts = robust._support_counts(models, np.ones(len(models), dtype=bool), src_h, dst, epsilon)
    assert bounds.dtype == np.int64 and bounds.shape == counts.shape
    assert np.all(bounds >= counts), np.flatnonzero(bounds < counts)
    assert np.all(bounds <= len(dst))


@SCORING
@given(case=bound_cases())
def test_support_bound_never_undercounts(case):
    assert_bounds_hold(case)


@pytest.mark.parametrize("model, p, q, epsilon", [edge[:4] for edge in X_GATE_EDGES])
def test_support_bound_never_undercounts_at_the_edges_of_the_x_gate(model, p, q, epsilon):
    models, _, src_h, dst, _ = x_gate_edge_args(model, p, q, epsilon)
    assert_bounds_hold((models, None, src_h, dst, epsilon))
    assert_bounds_hold((models, None, src_h[:, [1, 0, 2]], dst[:, ::-1], epsilon))  # x and y swapped


@SCORING
@given(case=bound_cases(), power=st.integers(-60, 60))
def test_power_of_two_scaled_models_get_the_same_bounds(case, power):
    models, _, src_h, dst, epsilon = case
    want = support_bounds(models, src_h, dst, epsilon)
    np.testing.assert_array_equal(support_bounds(np.ldexp(models, power), src_h, dst, epsilon), want)


def test_support_bound_holds_beyond_one_batch(rng):
    """More than ``_CHUNK`` models are bounded in slices."""
    c = 2 * robust._CHUNK + 1
    src = rng.uniform(0.0, 640.0, size=(300, 2))
    dst = src + rng.integers(-5, 6, size=(300, 2))
    models = np.tile(np.eye(3), (c, 1, 1))
    models[:, :2, 2] = rng.integers(-5, 6, size=(c, 2))
    models += rng.normal(0.0, 1e-4, size=(c, 3, 3))
    src_h = np.column_stack([src, np.ones(len(src))])
    bounds = support_bounds(models, src_h, dst, 4.0)
    counts = robust._support_counts(models, np.ones(c, dtype=bool), src_h, dst, 4.0)
    assert counts.max() > 0 and np.all(bounds >= counts)


def test_support_bound_prunes_nothing_where_float32_cannot_hold_the_pool():
    """Coordinates of 1e200, a non-finite one, or an epsilon of 1e-300 give every model the bound n."""
    models = np.tile(np.eye(3), (4, 1, 1))
    src_h = np.column_stack([np.arange(6.0), np.zeros(6), np.ones(6)])
    dst = src_h[:, :2] + 100.0  # no model has an inlier
    assert support_bounds(models, src_h, dst, 4.0).tolist() == [0] * 4
    for far in (FAR, np.inf, np.nan):
        far_src = src_h.copy()
        far_src[0, 1] = far
        assert support_bounds(models, far_src, dst, 4.0).tolist() == [6] * 4
    assert support_bounds(models, src_h, dst, 1e-300).tolist() == [6] * 4


def low_rate_pool(n, w, seed):
    """A scene with perfbench's lowrate noise."""
    rng = np.random.default_rng(seed)
    spec = SceneSpec(
        truth=random_scene_truth(rng, (640.0, 480.0)),
        image_bounds=(640.0, 480.0),
        n_total=n,
        inlier_rate=w,
        pixel_noise_sigma=0.5,
        scale_noise_sigma=0.05,
        angle_noise_sigma=0.05,
        seed=seed,
    )
    return generate_scene(spec)[0]


@pytest.mark.parametrize("n, w", [(500, 0.03), (500, 0.05), (500, 0.2), (2000, 0.4)])
def test_pruned_solve_matches_the_unpruned_solve(monkeypatch, n, w):
    """Capped solves give the same result, draws, budget and history when the bound prunes nothing."""
    pool = low_rate_pool(n, w, seed=int(1000 * w) + n)
    cfg = RansacConfig(max_iterations=10_000, seed=n)
    scored = []
    support_counts = robust._support_counts

    def counting(models, *args):
        scored.append(len(models))
        return support_counts(models, *args)

    monkeypatch.setattr(robust, "_support_counts", counting)
    got = ransac_homography(pool, pool, None, cfg)
    pruned = sum(scored)
    monkeypatch.setattr(robust._SupportBound, "__call__", lambda self, models: np.full(len(models), self.n + 1))
    scored.clear()
    assert result_fingerprint(got) == result_fingerprint(ransac_homography(pool, pool, None, cfg))
    # past the first batch, scored before any support of 4, few candidates need exact scores;
    # a solve that ends within its first batch never reaches the bound
    if len(scored) > 1:
        assert pruned - scored[0] < 0.05 * (sum(scored) - scored[0])


@pytest.mark.parametrize("seed", [3, 17])
def test_tiled_kernel_gives_the_same_low_rate_solve(monkeypatch, seed):
    """A capped n=500, w=0.05 solve with perfbench's lowrate noise, new kernel against the reference."""
    pool = low_rate_pool(500, 0.05, seed)
    cfg = RansacConfig(max_iterations=10_000, seed=seed)

    got = ransac_homography(pool, pool, None, cfg)
    monkeypatch.setattr(robust, "_support_counts", reference_support_counts)
    assert result_fingerprint(got) == result_fingerprint(ransac_homography(pool, pool, None, cfg))
    assert got.iterations_run == 10_000  # the cap: every draw was scored


def reference_draw_distinct(rng, n, s, count):
    """The earlier drawer for n > 64: rows with a repeat, found by a per-row sort, are redrawn whole."""
    out = rng.integers(0, n, size=(count, s))
    while True:
        srt = np.sort(out, axis=1)
        bad = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        n_bad = int(bad.sum())
        if n_bad == 0:
            return out
        out[bad] = rng.integers(0, n, size=(n_bad, s))


@pytest.mark.parametrize("n", [65, 70, 500])
@pytest.mark.parametrize("count", [1, 256, 2048])
def test_draw_distinct_matches_the_sort_based_reference(n, count):
    """Same rows and the same generator state after: the random stream is unchanged."""
    got_rng, want_rng = np.random.default_rng(n * count), np.random.default_rng(n * count)
    for _ in range(3):
        got = robust._draw_distinct(got_rng, n, 4, count)
        want = reference_draw_distinct(want_rng, n, 4, count)
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert all(len(set(row)) == 4 for row in got.tolist())
