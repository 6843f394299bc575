"""Tests for the adaptive RANSAC estimator and its iteration-count formula.

The tiled support-counting kernel is checked against the one-buffer kernel it
replaced, kept below as ``reference_support_counts``, the sample drawer
against the sort-based one, kept as ``reference_draw_distinct``, and the
replay of scored draws against the per-draw loop, kept as
``reference_ransac_homography``.
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
from hsolo.exceptions import DegenerateConfiguration, IllConditioned, SingularMatrix
from hsolo.geometry import (
    SINGULARITY_RTOL, as_pool, pool_arrays, project_points, transfer_errors, valid_homography
)
from hsolo.robust import EstimationResult, Improvement
from hsolo.solvers import _solve_gathered, solve_minimal_batch
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

    def test_underflowing_rate_returns_the_cap(self):
        # w**n is 0.0 in floating point, so log(1 - w**n) is 0: the cap, not a division by zero
        assert required_iterations(1e-100, 4, 0.95, 77) == 77

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
        with pytest.raises(ValueError, match="max_iterations"):
            required_iterations(0.5, 4, 0.95, 0)


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

    def test_no_model_found_carries_the_draws_made(self, rng):
        pts = [Point2(5.0 * i, 5.0 * i) for i in range(10)]
        pool = exact_pool(Homography.translation(2.0, 1.0), pts)
        with pytest.raises(NoModelFound) as exc:
            ransac_homography(pool, pool, 0.5, RansacConfig(seed=0, max_iterations=200))
        # every draw is degenerate, so the whole budget of w=0.5 is drawn
        assert exc.value.iterations_run == required_iterations(0.5, 4, 0.95) == 47

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


def entry_major(models):
    """``(c, 3, 3)`` models as the draw loop keeps them, ``(3, 3, c)``."""
    return np.ascontiguousarray(models.transpose(1, 2, 0))


def valid_support_counts(models, valid, src_h, dst, epsilon):
    """``_support_counts`` as ``ransac_homography`` calls it: valid rows scored in one call, the rest 0."""
    rows = np.flatnonzero(valid)
    counts = np.zeros(len(models), dtype=np.int64)
    counts[rows] = robust._support_counts(entry_major(models[rows]), src_h, dst, epsilon)
    return counts


def check_support_counts(models, valid, src_h, dst, epsilon):
    """The kernel on every model and on the valid ones against the reference; returns the former."""
    got = robust._support_counts(entry_major(models), src_h, dst, epsilon)
    assert got.dtype == np.int64
    want = reference_support_counts(models, np.ones(len(models), dtype=bool), src_h, dst, epsilon)
    np.testing.assert_array_equal(got, want)
    got_valid = valid_support_counts(models, valid, src_h, dst, epsilon)
    np.testing.assert_array_equal(got_valid, reference_support_counts(models, valid, src_h, dst, epsilon))
    return got


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
    n = draw(st.sampled_from(sorted({max(1, chunk - 1), chunk, chunk + 1, 2 * chunk + 1})))
    if n * c > 2_000_000:
        n = chunk
    return scoring_case(draw, n, c)


@st.composite
def bound_chunk_cases(draw):
    """Scoring pools around the bound's point chunk ``min(255, _BOUND_TILE_ELEMENTS // c)``; see ``scoring_case``.

    Up to 256 models the chunk is clamped at 255 points, and ``chunk + 1``
    points leave a last tile of one point.
    """
    c = draw(st.one_of(st.integers(1, 300), st.sampled_from([256, 257, robust._CHUNK])))
    chunk = min(255, max(1, robust._BOUND_TILE_ELEMENTS // c))
    n = draw(st.sampled_from(sorted({max(1, chunk - 1), chunk, chunk + 1, 2 * chunk + 1})))
    return scoring_case(draw, n, c)


def scoring_case(draw, n, c):
    """``make_scoring_case`` from a drawn generator seed and threshold: two draws for any c."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return make_scoring_case(rng, n, c, draw(st.sampled_from([1.0, 4.0, 5.0, 1e-3, 1e6])))


def make_scoring_case(rng, n, c, epsilon):
    """n points, c models, with w exactly 0 or near the cut, NaN, inf and invalid rows.

    Points and translations are integers, so many errors are exact and some
    land on the threshold (a 3-4-5 offset at epsilon 5). Every choice comes
    from ``rng``.
    """
    src = rng.integers(-50, 700, size=(n, 2)).astype(float)
    dst = src + rng.integers(-5, 6, size=2)
    outliers = rng.random(n) < 0.5
    dst[outliers] = rng.integers(-50, 700, size=(int(outliers.sum()), 2))
    models = np.tile(np.eye(3), (c, 1, 1))
    models[:, :2, 2] = rng.integers(-5, 6, size=(c, 2))
    noisy = rng.random(c) < 0.3
    models[noisy] += rng.normal(0.0, 1e-3, size=(int(noisy.sum()), 3, 3))
    # third row (a, 0, delta - a * x0): w is about delta at a chosen point x0
    cut = np.flatnonzero(rng.random(c) < 0.3)
    a = rng.integers(1, 4, size=cut.size) * rng.choice([1.0, 1e-6], size=cut.size)
    x0 = src[rng.integers(n, size=cut.size), 0]
    fro = np.linalg.norm(models[cut], axis=(1, 2))
    delta = SINGULARITY_RTOL * fro * rng.choice([0.0, 0.5, 1.0, 2.0, -1.0], size=cut.size)
    models[cut, 2] = np.column_stack([a, np.zeros(cut.size), delta - a * x0])
    bad = np.flatnonzero(rng.random(c) < 0.1)
    entries = rng.integers(9, size=bad.size)
    models.reshape(c, 9)[bad, entries] = rng.choice([np.nan, np.inf, -np.inf], size=bad.size)
    valid = rng.random(c) < 0.9
    src_h = np.column_stack([src, np.ones(n)])
    return models, valid, src_h, dst, epsilon


@SCORING
@given(case=scoring_cases())
def test_tiled_support_counts_match_the_reference(case):
    check_support_counts(*case)


@SCORING
@given(case=point_chunk_cases())
def test_point_chunked_support_counts_match_the_reference(case):
    check_support_counts(*case)


def test_support_counts_with_one_point_per_tile():
    """More models than tile elements: each tile holds one point of every model."""
    case = make_scoring_case(np.random.default_rng(11), 3, robust._TILE_ELEMENTS + 1, 5.0)
    assert check_support_counts(*case).max() > 0


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
        got = check_support_counts(*x_gate_edge_args(model, p, q, epsilon))
        assert got.tolist() == [expected], (model, p, q)


def test_support_counts_of_an_empty_scoring_pool_are_zero():
    models = np.tile(np.eye(3), (3, 1, 1))
    counts = check_support_counts(models, np.ones(3, dtype=bool), np.empty((0, 3)), np.empty((0, 2)), 4.0)
    assert counts.tolist() == [0] * 3


def support_bounds(models, src_h, dst, epsilon):
    return robust._SupportBound(src_h, dst, epsilon)(entry_major(models))


@st.composite
def bound_cases(draw):
    """``scoring_case``s cut to one batch, some models scaled to 1e150 and some points moved to 1e200."""
    models, valid, src_h, dst, epsilon = draw(st.one_of(scoring_cases(), point_chunk_cases(), bound_chunk_cases()))
    # ransac_homography bounds at most _CHUNK models per call
    models, valid = models[: robust._CHUNK], valid[: robust._CHUNK]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        models[rng.random(len(models)) < 0.3] *= BIG
    if draw(st.booleans()):
        src_h[rng.integers(len(src_h)), rng.integers(2)] = FAR
    return models, valid, src_h, dst, epsilon


def assert_bounds_hold(case):
    models, _, src_h, dst, epsilon = case
    bounds = support_bounds(models, src_h, dst, epsilon)
    counts = robust._support_counts(entry_major(models), src_h, dst, epsilon)
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


def test_support_bound_holds_for_a_full_batch(rng):
    """``_CHUNK`` models, the largest batch ``ransac_homography`` bounds, fill the preallocated buffers."""
    c = robust._CHUNK
    src = rng.uniform(0.0, 640.0, size=(300, 2))
    dst = src + rng.integers(-5, 6, size=(300, 2))
    models = np.tile(np.eye(3), (c, 1, 1))
    models[:, :2, 2] = rng.integers(-5, 6, size=(c, 2))
    models += rng.normal(0.0, 1e-4, size=(c, 3, 3))
    src_h = np.column_stack([src, np.ones(len(src))])
    bounds = support_bounds(models, src_h, dst, 4.0)
    counts = robust._support_counts(entry_major(models), src_h, dst, 4.0)
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
        assert models.shape[-1] <= robust._CHUNK
        scored.append(models.shape[-1])
        return support_counts(models, *args)

    monkeypatch.setattr(robust, "_support_counts", counting)
    got = ransac_homography(pool, pool, None, cfg)
    pruned = sum(scored)
    monkeypatch.setattr(robust._SupportBound, "__call__", lambda self, models: np.full(models.shape[-1], self.n + 1))
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

    def reference(models, *args):
        return reference_support_counts(models.transpose(2, 0, 1), np.ones(models.shape[-1], dtype=bool), *args)

    got = ransac_homography(pool, pool, None, cfg)
    monkeypatch.setattr(robust, "_support_counts", reference)
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


# --- one gather per batch, entry-major models ------------------------------------
#
# A search keeps its sample pool as one (coordinate, image, point) table,
# gathers a batch in one take and solves it with the closed form's
# entry-major kernel. The public (c, 4, 2) solver, with the validity test on
# its transposed models, is the reference.


@st.composite
def gathered_batches(draw):
    """A 12-point pool with repeated points, a collinear triple and coincident targets, scaled, and a batch size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = rng.uniform(-300.0, 300.0, size=(12, 2))
    dst = rng.uniform(-300.0, 300.0, size=(12, 2))
    src[:5] = rng.integers(-2, 3, size=(5, 2))  # a 5x5 grid: repeats and collinear triples
    src[5] = src[6]  # a repeated point
    src[7:10] = [[1.0, 2.0], [4.0, 3.0], [7.0, 4.0]]  # a collinear triple
    dst[8:] = dst[8]  # four coincident targets
    scales = draw(st.sampled_from([(1.0, 1.0), (1e-150, 1e-150), (1e150, 1e150), (1e-150, 1e150), (1e150, 1e-150)]))
    return src * scales[0], dst * scales[1], draw(st.sampled_from([1, 11, 44, 2048])), rng.integers(2**32)


@settings(max_examples=60, deadline=None)
@given(case=gathered_batches())
def test_gathered_batches_solve_as_the_public_solver(case):
    """A search's one-gather draw and the entry-major kernel give ``solve_minimal_batch``'s bits and masks."""
    src, dst, c, seed = case
    search = robust._Search(np.random.default_rng(seed), np.stack((src.T, dst.T), axis=1), 1.0, RansacConfig())
    search.walk.k, search.batch = c, c
    start, end, pts = search.draw()
    samples = robust._draw_distinct(np.random.default_rng(seed), len(src), 4, c)
    assert (start, end, pts.shape) == (0, c, (2, 2, 4, c))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        models, valid = _solve_gathered(pts)
        valid &= valid_homography(models)
        want, want_valid = solve_minimal_batch(src[samples], dst[samples])
        want_valid &= valid_homography(want.transpose(1, 2, 0))
    assert models.shape == (3, 3, c)
    assert models.transpose(2, 0, 1).tobytes() == want.tobytes()
    np.testing.assert_array_equal(valid, want_valid)


# --- the replay against the loop that gave every draw a slot ------------------
#
# ransac_homography replays only the draws it scored. The reference below is
# the batch loop it replaced, kept verbatim apart from names: every draw of a
# batch gets a support slot, zero unless scored, and the replay steps through
# all of them one at a time. It solves with the public ``(c, 4, 2)`` closed
# form and hands the bound and the scorer its models entry-major.


def reference_ransac_homography(sample_pool, score_pool, w_init, config: RansacConfig) -> EstimationResult:
    """Same batches, draws and bound; a per-draw ``it += 1`` replay over zero-filled supports."""
    sample_pool, score_pool = as_pool(sample_pool), as_pool(score_pool)
    ns = len(sample_pool)
    if w_init is None:
        w_init = min(1.0, config.sample_size / ns)
    s_src, s_dst = pool_arrays(sample_pool)
    f_src, f_dst = pool_arrays(score_pool)
    src_h = np.column_stack([f_src, np.ones(len(score_pool))])

    rng = np.random.default_rng(config.seed)
    k = required_iterations(w_init, config.sample_size, config.p, config.max_iterations)
    best_support = 0
    best_model = None
    history = []
    bound = None
    it = 0
    batch = 256
    while it < k:
        chunk = min(batch, k - it)
        batch = min(2 * batch, robust._CHUNK)
        samples = robust._draw_distinct(rng, ns, config.sample_size, chunk)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            models, valid = solve_minimal_batch(s_src[samples], s_dst[samples])
            valid &= valid_homography(models.transpose(1, 2, 0))
        rows = np.flatnonzero(valid)
        if best_support >= 4:
            if bound is None:
                bound = robust._SupportBound(src_h, f_dst, config.epsilon)
            rows = rows[bound(entry_major(models[rows])) > best_support]
        supports = np.zeros(chunk, dtype=np.int64)
        supports[rows] = robust._support_counts(entry_major(models[rows]), src_h, f_dst, config.epsilon)
        for j, sup in enumerate(supports.tolist()):
            if it >= k:
                break
            it += 1
            if sup >= 4 and sup > best_support:
                model = Homography._trusted(models[j])
                best_support = sup
                best_model = model
                w_hat = min(1.0, sup / ns)
                k = min(k, required_iterations(w_hat, config.sample_size, config.p, config.max_iterations))
                history.append(Improvement(it, sup, k, model))

    if best_model is None:
        raise NoModelFound("no sampled model reached a support of 4")
    idx = np.flatnonzero(transfer_errors(best_model.m, f_src, f_dst) <= config.epsilon)
    model, inlier_idx = robust._consensus_refit(best_model, idx, score_pool, f_src, f_dst, config.epsilon)
    return EstimationResult(model, inlier_idx, int(inlier_idx.size), it, k, 0.0, tuple(history))


def _ransac_outcome(fn, *args):
    try:
        return result_fingerprint(fn(*args))
    except NoModelFound:
        return "NoModelFound"


def _replays_agree(cases) -> int:
    """Assert both loops agree on every ``(sample_pool, score_pool, w_init, config)``.

    Returns how many solves ended with ``k_final < iterations_run``: an
    improvement cut the budget below the draws already made.
    """
    budget_cut = 0
    for args in cases:
        want = _ransac_outcome(reference_ransac_homography, *args)
        assert _ransac_outcome(ransac_homography, *args) == want, args[3]
        budget_cut += want != "NoModelFound" and want[4] < want[3]
    return budget_cut


@pytest.mark.parametrize("w", [0.03, 0.05])
def test_capped_replay_matches_the_reference(w):
    pool = low_rate_pool(500, w, seed=int(1000 * w) + 7)
    _replays_agree([(pool, pool, None, RansacConfig(max_iterations=10_000, seed=s)) for s in (1, 2)])


def test_plain_replay_matches_the_reference():
    cases = []
    for n in (200, 500, 2000):
        pool = low_rate_pool(n, 0.4, seed=n + 1)
        cases += [(pool, pool, None, RansacConfig(seed=s)) for s in range(4)]
    assert _replays_agree(cases) >= 1


def test_inner_style_replay_matches_the_reference():
    """A 21-row sample pool, 15 inliers and 6 outliers, scored on the whole scene as hsolo's inner search is."""
    rng = np.random.default_rng(21)
    truth = random_scene_truth(rng, (640.0, 480.0))
    spec = SceneSpec(
        truth=truth, image_bounds=(640.0, 480.0), n_total=500, inlier_rate=0.2,
        pixel_noise_sigma=0.5, scale_noise_sigma=0.05, angle_noise_sigma=0.05, seed=21,
    )
    pool, mask = generate_scene(spec)
    cases = []
    for s in range(10):
        inliers = rng.choice(np.flatnonzero(mask), 15, replace=False)
        rows = np.concatenate([inliers, rng.choice(np.flatnonzero(~mask), 6, replace=False)])
        cases.append((pool[rng.permutation(rows)], pool, 0.7, RansacConfig(seed=s)))
    assert _replays_agree(cases) >= 1


# --- the consensus refit --------------------------------------------------------
#
# _consensus_refit takes the model's inlier indices from its caller and has
# four exits: too few indices, a DLT that raises, a refit with less support
# than the model's, and a refit with at least as much.


def refit_case(rng, n_in=40, n_out=40, sigma=0.5):
    """A noisy mixed pool, its arrays, a model off the truth by a small shift and that model's inliers."""
    truth = random_truth(rng)
    pool, _ = mixed_pool(rng, truth, n_in, n_out)
    src, dst = pool_arrays(pool)
    dst = dst + rng.normal(0.0, sigma, size=dst.shape)
    pool = as_pool(pool_from_arrays(src, dst))
    model = Homography(Homography.translation(0.8, -0.6).m @ truth.m)
    idx = np.flatnonzero(transfer_errors(model.m, src, dst) <= 4.0)
    return pool, src, dst, model, idx


def test_consensus_refit_keeps_fewer_than_four_indices(rng):
    pool, src, dst, model, idx = refit_case(rng)
    got_model, got_idx = robust._consensus_refit(model, idx[:3], pool, src, dst, 4.0)
    assert got_model is model and got_idx.tolist() == idx[:3].tolist()


@pytest.mark.parametrize("error", [DegenerateConfiguration, IllConditioned, SingularMatrix])
def test_consensus_refit_keeps_the_model_when_the_dlt_raises(monkeypatch, rng, error):
    pool, src, dst, model, idx = refit_case(rng)

    def failing(_):
        raise error("no fit")

    monkeypatch.setattr(robust, "dlt_solve", failing)
    got_model, got_idx = robust._consensus_refit(model, idx, pool, src, dst, 4.0)
    assert got_model is model and got_idx is idx


def test_consensus_refit_keeps_the_model_when_the_dlt_raises_on_collinear_inliers():
    # every inlier on one line: the DLT over them raises DegenerateConfiguration
    src = np.column_stack([np.arange(10.0) * 7.0, np.arange(10.0) * 3.0])
    dst = src + [5.0, -2.0]
    pool = as_pool(pool_from_arrays(src, dst))
    model = Homography.translation(5.0, -2.0)
    idx = np.flatnonzero(transfer_errors(model.m, src, dst) <= 4.0)
    got_model, got_idx = robust._consensus_refit(model, idx, pool, src, dst, 4.0)
    assert got_model is model and got_idx is idx and idx.size == 10


def test_consensus_refit_keeps_the_model_when_the_refit_loses_support(monkeypatch, rng):
    pool, src, dst, model, idx = refit_case(rng)
    # a refit 30 px off keeps none of the model's inliers
    far = Homography(Homography.translation(30.0, 0.0).m @ model.m)
    monkeypatch.setattr(robust, "dlt_solve", lambda _: far)
    assert np.count_nonzero(transfer_errors(far.m, src, dst) <= 4.0) < idx.size
    got_model, got_idx = robust._consensus_refit(model, idx, pool, src, dst, 4.0)
    assert got_model is model and got_idx is idx


def test_consensus_refit_returns_a_refit_with_at_least_the_support(rng):
    pool, src, dst, model, idx = refit_case(rng)
    got_model, got_idx = robust._consensus_refit(model, idx, pool, src, dst, 4.0)
    want = robust.dlt_solve(pool[idx])
    assert got_model.m.tobytes() == want.m.tobytes()
    assert got_idx.tolist() == np.flatnonzero(transfer_errors(want.m, src, dst) <= 4.0).tolist()
    assert got_idx.size >= idx.size


def test_consensus_refit_returns_a_refit_that_ties_the_support():
    # exact inliers: the refit fits them as well as the model, with the same support
    truth = Homography(np.array([[1.1, 0.05, 12.0], [-0.04, 0.95, -7.0], [1e-4, -5e-5, 1.0]]))
    rng = np.random.default_rng(4)
    src = np.column_stack([rng.uniform(20.0, 620.0, 30), rng.uniform(20.0, 460.0, 30)])
    dst = project_points(truth.m, src)
    pool = as_pool(pool_from_arrays(src, dst))
    idx = np.flatnonzero(transfer_errors(truth.m, src, dst) <= 4.0)
    got_model, got_idx = robust._consensus_refit(truth, idx, pool, src, dst, 4.0)
    assert got_model is not truth and got_idx.tolist() == idx.tolist() == list(range(30))
