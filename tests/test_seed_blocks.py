"""Block seed evaluation against the one-seed-at-a-time reference loop.

``hsolo_estimate`` gates a window of seeds at once, computes gate medians
and filtered sets for its gate candidates a batch at a time, runs each
batch's inner searches together and then replays the batch in walk order.
The reference below is the per-seed loop it replaced, kept verbatim apart
from names and one rule: a found seed whose drawn model has no inlier
outside the best's inliers is passed over, as the walk passes over its
refit. It ends in the same ``_polish`` stage: the two must agree bit for bit
on every field of the result, history included.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hsolo import (
    AffineFeature,
    Correspondence,
    HsoloConfig,
    NoModelFound,
    Point2,
    SingularMatrix,
    hsolo_estimate,
)
from hsolo import estimator
from hsolo.estimator import _gate_threshold, _polish, seed_medians
from hsolo.geometry import Pool, apply_homogeneous, as_pool, pool_arrays, transfer_errors
from hsolo.robust import EstimationResult, Improvement, RansacConfig, ransac_homography, required_iterations
from hsolo.solvers import single_match_homography

from conftest import (
    IDENTITY_SEED,
    _reference_filter,
    gate_block,
    identity_targets,
    kernel_filter,
    make_byproduct_correspondence,
    random_points,
    random_truth,
    result_fingerprint,
    scalar_seed_errors,
)


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
        inner_config = RansacConfig(epsilon=config.epsilon, p=config.p, seed=inner_seed)
        try:
            inner = ransac_homography([shuffled[j] for j in idx], shuffled, config.w_f, inner_config)
        except NoModelFound:
            continue
        # a seed whose drawn model has no inlier outside the best's is not refit
        raw = np.flatnonzero(transfer_errors(inner.history[-1].model.m, src, dst) <= config.epsilon)
        if best is not None and np.isin(raw, best.inlier_indices).all():
            continue
        if inner.support > best_support:
            best = inner
            best_support = inner.support
            k = min(k, outer_budget(min(1.0, inner.support / n)))
            history.append(Improvement(it, inner.support, k, inner.model))

    if best is None:
        raise NoModelFound("no seed correspondence led to a model with support >= 4")

    model, inlier_idx = _polish(best.model, best.inlier_indices, as_pool(shuffled), src, dst, config.epsilon)
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
        return result_fingerprint(fn(pool, config))
    except NoModelFound:
        return "NoModelFound"


# at n=2000 _max_seed_block caps the gate windows at their first size, 32, so
# the walk crosses capped windows; one n_f there keeps the reference's time down
@pytest.mark.parametrize(
    "w, n", [(w, n) for w in (0.03, 0.05, 0.2, 0.4) for n in (12, 200, 500)] + [(0.03, 2000), (0.4, 2000)]
)
def test_block_loop_matches_reference_bit_for_bit(w, n):
    found = 0
    for seed, duplicated in ((1, False), (2, True)):
        pool = noisy_pool(n, w, 100 * n + round(100 * w) + seed, duplicated)
        for n_f in (21,) if n == 2000 else (5, 20, 21):
            config = HsoloConfig(n_f=n_f, seed=seed)
            want = _outcome(reference_hsolo_estimate, pool, config)
            assert _outcome(hsolo_estimate, pool, config) == want, (seed, duplicated, n_f)
            found += want != "NoModelFound"
    assert found > 0


# Inner budgets other than the default's single batch of 11 draws. At
# w_f=0.3 a search's budget starts at 369 draws, past the first batch of 256,
# and on the n=2000 pools some searches need more than that batch; on the
# last two pools, such a search's later batches change the result. p=0.99
# gives 17-draw budgets, and n_f=12 smaller filtered sets. The last config
# gives one-draw searches on 5-row filtered sets, where duplicated matches
# often leave a search without a single valid draw; its walks are long, so
# it skips the n=2000 pools.
@pytest.mark.parametrize(
    "overrides, max_n",
    [({"w_f": 0.3}, 2000), ({"p": 0.99}, 2000), ({"n_f": 12}, 2000), ({"w_f": 0.95, "p": 0.5, "n_f": 5}, 500)],
    ids=["w_f=0.3", "p=0.99", "n_f=12", "one-draw"],
)
def test_block_loop_matches_reference_with_other_inner_budgets(overrides, max_n):
    cases = [
        (w, n, 100 * n + round(100 * w) + seed, seed, duplicated)
        for w, n in ((0.03, 2000), (0.05, 2000), (0.05, 500), (0.2, 500), (0.4, 200), (0.2, 12))
        for seed, duplicated in ((1, False), (2, True))
    ]
    found = 0
    for w, n, pool_seed, seed, duplicated in cases + [(0.03, 2000, 0, 1, False), (0.05, 2000, 2, 2, False)]:
        if n > max_n:
            continue
        pool = noisy_pool(n, w, pool_seed, duplicated)
        config = HsoloConfig(seed=seed, **overrides)
        want = _outcome(reference_hsolo_estimate, pool, config)
        assert _outcome(hsolo_estimate, pool, config) == want, (w, n, pool_seed, seed)
        found += want != "NoModelFound"
    assert found > 0


def test_seed_block_errors_and_medians_match_scalar_path():
    pool = noisy_pool(200, 0.2, 7, duplicated=True)
    src, dst = pool_arrays(pool)
    for epsilon_r in GATE_EPSILONS:
        _check_gated_block(as_pool(pool), src, dst, 20, epsilon_r)
    want = [_reference_filter(scalar_seed_errors(c, src, dst), 20)[2] for c in pool]
    np.testing.assert_array_equal(seed_medians(pool, pool, 20), want)


def test_seed_medians_rejects_an_empty_filtered_set():
    pool = noisy_pool(50, 0.4, 3)
    with pytest.raises(ValueError, match="n_f must be >= 1, got 0"):
        seed_medians(pool, pool, 0)


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
    usable = 0
    with np.errstate(over="ignore"):  # Homography's norm of the 1e200 sketch
        for epsilon_r in GATE_EPSILONS:
            _check_gated_block(as_pool(seeds), src, dst, 21, epsilon_r)
        for c in seeds:
            try:
                single_match_homography(c)
            except (SingularMatrix, ValueError):
                continue
            usable += 1
    assert 0 < usable < len(seeds)


def test_filter_matches_heap_reference_with_ties_and_infinities():
    rng = np.random.default_rng(3)
    for _ in range(500):
        errors = np.round(rng.uniform(0, 5, size=rng.integers(1, 50)), 0)
        errors[rng.random(errors.shape[0]) < 0.2] = np.inf
        n_f = int(rng.integers(1, 30))
        idx, _, median = _reference_filter(errors, n_f)
        got_idx, got_median = kernel_filter(errors, n_f)
        assert got_idx.tolist() == idx.tolist()
        assert got_median == median


def test_nan_errors_rank_last_like_infinity():
    idx, median = kernel_filter([np.nan, 1.0, np.inf, 0.5, np.nan], 4)
    assert idx.tolist() == [3, 1, 0, 2]
    assert median == math.inf


# --- the gate decided by a count ---------------------------------------------
#
# Below a gate of +inf, the walk computes exact errors only for the rows that
# the product keeps: those with more than (take - 1) // 2 points whose squared
# distance may lie within the widened threshold. Every seed must pass or fail
# as on the one-seed path, a passing seed must get that path's filtered set,
# every row the exact gate is given must report that path's median, and every
# other row +inf.

GATE_EPSILONS = (1e-300, 1e-160, 20.0, 1e160, math.inf)


def _check_gated_block(seeds: Pool, src, dst, n_f: int, epsilon_r: float) -> None:
    errors = [scalar_seed_errors(c, src, dst) for c in seeds]
    want = [_reference_filter(e, n_f) for e in errors]
    want_medians = np.array([median for _, _, median in want])
    # at a gate of +inf every row is a candidate: every median is exact and
    # every seed gets its filtered set
    rows, exact_medians, exact_passing = gate_block(seeds, src, dst, n_f, math.inf)
    assert rows.tolist() == list(range(len(seeds)))
    exact_filtered = {i: cut() for i, cut in exact_passing}
    assert exact_medians.tobytes() == want_medians.tobytes()
    for i, (idx, _, _) in enumerate(want):
        assert exact_filtered[i].tolist() == idx.tolist(), i
    rows, medians, passing = gate_block(seeds, src, dst, n_f, epsilon_r)
    filtered = {i: cut() for i, cut in passing}
    passed = medians <= epsilon_r
    assert passed.tolist() == (want_medians <= epsilon_r).tolist()
    for i, (idx, _, _) in enumerate(want):
        if passed[i]:
            assert filtered[i].tolist() == idx.tolist(), i
        else:
            assert i not in filtered, i
    # the rows given to the exact gate report the one-seed path's medians bit
    # for bit, and every other row +inf
    given = np.zeros(len(seeds), dtype=bool)
    given[rows] = True
    assert medians[given].tobytes() == want_medians[given].tobytes()
    assert np.all(medians[~given] == math.inf)


def _identity_seed_block(offsets, n_f: int, epsilon_r: float):
    """The gated block of the identity sketch against targets at the given offsets, checked.

    Every source point is the origin, so the error of offset (a, b) is
    ``np.hypot(a, b)``.
    """
    src, dst = identity_targets(offsets)
    _check_gated_block(IDENTITY_SEED, src, dst, n_f, epsilon_r)
    return gate_block(IDENTITY_SEED, src, dst, n_f, epsilon_r)[1:]


def test_gate_keeps_a_median_that_the_sum_of_squares_rounds_above_epsilon_r():
    a, b = 2.445868078976142, 9.729328718945194
    r = float(np.hypot(a, b))
    assert a * a + b * b > r * r  # so an unwidened squared threshold drops it
    offsets = [(0.0, 1.0), (0.0, 2.0), (a, b), (0.0, 30.0), (0.0, 40.0)]
    medians, _ = _identity_seed_block(offsets, 5, r)
    assert medians[0] == r


def test_gate_count_rank_for_odd_and_even_filtered_sets():
    errors = [(0.0, e) for e in (1.0, 2.0, 3.0, 5.0, 8.0, 9.0)]
    # take 6: the median 4 sits between the values of rank 2 and 3, so three
    # errors within epsilon_r make the row exact, and two cannot pass
    assert _identity_seed_block(errors, 6, 4.0)[0][0] == 4.0
    assert _identity_seed_block(errors, 6, 3.5)[0][0] == 4.0
    assert _identity_seed_block(errors, 6, 2.5)[0][0] == math.inf
    # take 5: two errors within 2.5 cannot make a median of 3 pass
    assert _identity_seed_block(errors[:5], 5, 2.5)[0][0] == math.inf
    assert _identity_seed_block(errors[:5], 5, 3.0)[0][0] == 3.0


@st.composite
def gated_blocks(draw):
    """Seeds, a pool's points, n_f and an epsilon_r, the last often within a few ulps of a gate median.

    The pool is a similarity scene at a drawn coordinate scale, so errors
    and their squares can underflow; seeds include singular and overflowing
    sketches, and far-out points give errors whose squares or projections
    overflow, and NaN squared distances.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-160, 1e-300, 1e6]))
    n = draw(st.integers(1, 30))
    n_f = draw(st.integers(5, 24))
    noise = draw(st.sampled_from([0.0, 0.5, 5.0]))
    r, angle = math.exp(rng.uniform(-0.5, 0.5)), rng.uniform(-math.pi, math.pi)
    src = rng.uniform(0.0, 640.0, size=(n, 2))
    rot = r * np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    dst = src @ rot.T + rng.uniform(-100.0, 100.0, size=2) + rng.normal(0.0, noise, size=(n, 2))
    outliers = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.8]))
    dst[outliers] = rng.uniform(0.0, 640.0, size=(int(outliers.sum()), 2))
    seed_rows = np.zeros((n, 8))
    seed_rows[:, [0, 1]], seed_rows[:, [4, 5]] = src * scale, dst * scale
    seed_rows[:, 2], seed_rows[:, 6] = 1.0, r * np.exp(rng.normal(0.0, 0.05, size=n))
    seed_rows[:, 3], seed_rows[:, 7] = 0.0, angle + rng.normal(0.0, 0.05, size=n)
    specials = draw(st.lists(st.sampled_from(["far", "nan", "singular", "overflow"]), max_size=4))
    for kind in specials:
        i = int(rng.integers(n))
        if kind == "nan":
            # a seed with entries 2 and -2 sends (1.7e308, 1.7e308) to inf - inf
            seed_rows[i, 6], seed_rows[i, 7] = 2.0 * math.sqrt(2.0), math.pi / 4
            seed_rows[int(rng.integers(n)), [0, 1]] = 1.7e308
        elif kind == "singular":
            seed_rows[i, 6] = 1e-7
        elif kind == "overflow":
            seed_rows[i, 2], seed_rows[i, 6] = 1e-200, 1e200
        else:
            seed_rows[i, [0, 1]] = rng.choice([-1.0, 1.0], size=2) * rng.choice([1e300, 1.7e308])
    seeds = Pool(seed_rows)
    pool_src, pool_dst = pool_arrays(seeds)
    if not draw(st.booleans()):
        return seeds, pool_src, pool_dst, n_f, draw(st.sampled_from(GATE_EPSILONS))
    with np.errstate(over="ignore", invalid="ignore"):  # far-out points
        medians = seed_medians(seeds, seeds, n_f)
    finite = medians[np.isfinite(medians) & (medians > 0.0)]
    if finite.size == 0:
        return seeds, pool_src, pool_dst, n_f, 20.0 * scale
    epsilon_r = float(finite[draw(st.integers(0, finite.size - 1))])
    steps = draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        epsilon_r = float(np.nextafter(epsilon_r, math.inf if steps > 0 else 0.0))
    return seeds, pool_src, pool_dst, n_f, epsilon_r


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=gated_blocks())
def test_gated_block_decides_every_seed_as_the_exact_block(case):
    seeds, src, dst, n_f, epsilon_r = case
    with np.errstate(over="ignore", invalid="ignore"):  # far-out points
        _check_gated_block(seeds, src, dst, n_f, epsilon_r)


# --- the gate's matrix product ------------------------------------------------
#
# Per window of seeds, one (seeds, 9) @ (9, n) product bounds each seed's count
# of squared distances within the gate threshold from above. Its candidates
# must include every row that an exact count of every row's squared distances
# keeps, so every seed that can pass gets exact errors.


def _exact_count_rows(seeds: Pool, src, dst, n_f: int, epsilon_r: float) -> np.ndarray:
    """The rows that the exact count keeps when it counts every row of the block."""
    top, ok = estimator._sketches(seeds)
    x, y, _ = apply_homogeneous((*top[..., None], (0.0, 0.0, 1.0)), src[:, 0], src[:, 1])
    dx, dy = x - dst[:, 0], y - dst[:, 1]
    d2 = dx * dx + dy * dy
    lo = (min(n_f, src.shape[0]) - 1) // 2
    return np.flatnonzero(ok & (np.count_nonzero(d2 <= _gate_threshold(epsilon_r), axis=1) > lo))


def _gate_candidates(seeds: Pool, src, dst, n_f: int, epsilon_r: float) -> np.ndarray:
    """The product's candidates, checked to include every row that the exact count keeps."""
    top, ok = estimator._sketches(seeds)
    gate = estimator._GatePool(src, dst)
    candidates = gate.candidates(top, ok, min(n_f, src.shape[0]), _gate_threshold(epsilon_r))
    with np.errstate(over="ignore", invalid="ignore"):  # far-out points
        kept = _exact_count_rows(seeds, src, dst, n_f, epsilon_r)
    assert set(kept.tolist()) <= set(candidates.tolist()), (kept, candidates)
    return candidates


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=gated_blocks())
def test_gate_candidates_include_every_row_the_exact_count_keeps(case):
    _gate_candidates(*case)


def _usable_rows(seeds: Pool) -> list:
    return np.flatnonzero(estimator._sketches(seeds)[1]).tolist()


def test_gate_candidates_prune_a_lowrate_window():
    pool = noisy_pool(500, 0.05, 13)
    seeds, (src, dst) = as_pool(pool), pool_arrays(pool)
    candidates = _gate_candidates(seeds, src, dst, 21, 20.0)
    _, _, passing = gate_block(seeds, src, dst, 21, 20.0)
    passed = [i for i, _ in passing]
    assert 0 < len(passed) <= candidates.size < len(pool) // 10
    assert set(passed) <= set(candidates.tolist())
    # at a gate of +inf the product is skipped: every row is a candidate
    assert _gate_candidates(seeds, src, dst, 21, math.inf).tolist() == list(range(len(pool)))


# The product runs only where every nonzero pool coordinate lies in
# [2**-200, 2**200]; elsewhere every usable row is a candidate. A 1.7e308
# point is far outside.
@pytest.mark.parametrize(
    "coordinate, in_range",
    [
        (2.0**200, True),
        (float(np.nextafter(2.0**200, math.inf)), False),
        (2.0**-200, True),
        (float(np.nextafter(2.0**-200, 0.0)), False),
        (1.7e308, False),
    ],
)
def test_gate_product_runs_only_within_its_coordinate_range(coordinate, in_range):
    pool = noisy_pool(60, 0.4, 11)
    seeds = as_pool(pool)
    src, dst = (a.copy() for a in pool_arrays(pool))
    src[0, 0] = dst[1, 1] = coordinate
    assert (estimator._GatePool(src, dst).features is not None) == in_range
    for epsilon_r in GATE_EPSILONS:
        candidates = _gate_candidates(seeds, src, dst, 21, epsilon_r)
        if not in_range and _gate_threshold(epsilon_r) < math.inf:
            assert candidates.tolist() == _usable_rows(seeds)
        with np.errstate(over="ignore", invalid="ignore"):  # far-out points
            _check_gated_block(seeds, src, dst, 21, epsilon_r)


def test_gate_candidates_at_a_subnormal_threshold_keep_exact_matches():
    # epsilon_r=1e-160 squares below the smallest normal double. The first
    # seed sends its own point onto the origin, and the targets are the
    # images of the sources under its sketch, as the exact path computes
    # them: that seed's squared distances are exactly 0, while the product's
    # rounding leaves residues up to about 1e-10, far above the threshold.
    rng = np.random.default_rng(21)
    n = 40
    rows = np.zeros((n, 8))
    rows[:, 0:2] = rng.uniform(0.0, 640.0, size=(n, 2))
    rows[:, 2], rows[:, 3], rows[:, 6], rows[:, 7] = 1.3, 0.2, 1.3 * 0.9, 0.2 + 0.7
    top, ok = estimator._sketches(Pool(rows[:1]))
    assert ok[0]
    x, y, _ = apply_homogeneous((*top[:, :, 0], (0.0, 0.0, 1.0)), rows[:, 0], rows[:, 1])
    assert x[0] == y[0] == 0.0  # the first seed's row, and so its sketch, stay as they were
    rows[:, 4], rows[:, 5] = x, y
    seeds = Pool(rows)
    src, dst = pool_arrays(seeds)
    assert _gate_threshold(1e-160) < 2 * sys.float_info.min
    assert 0 in _gate_candidates(seeds, src, dst, 21, 1e-160).tolist()
    _check_gated_block(seeds, src, dst, 21, 1e-160)


def test_gate_leaves_out_an_overflowing_sketch():
    # a 1e-200 -> 1e200 scale ratio overflows the sketch: the row is unusable,
    # so it is a candidate only where the threshold is +inf, and no kernel warns
    pool = noisy_pool(80, 0.2, 12)
    rows = as_pool(pool).rows.copy()
    rows[5, 2], rows[5, 6] = 1e-200, 1e200
    seeds = Pool(rows)
    src, dst = pool_arrays(pool)
    assert 5 not in _usable_rows(seeds)
    for epsilon_r in GATE_EPSILONS:
        candidates = _gate_candidates(seeds, src, dst, 21, epsilon_r).tolist()
        assert (5 in candidates) == (_gate_threshold(epsilon_r) == math.inf)
        _, medians, _ = gate_block(seeds, src, dst, 21, epsilon_r)
        assert medians[5] == math.inf


# --- the walk at the gate's extremes ------------------------------------------


@pytest.mark.parametrize("n", [200, 2000])
def test_walk_crosses_every_window_when_no_seed_passes(n):
    pool = noisy_pool(n, 0.2, 300 + n)
    config = HsoloConfig(epsilon_r=1e-6, seed=1)
    with pytest.raises(NoModelFound) as raised:
        hsolo_estimate(pool, config)
    assert raised.value.iterations_run == n
    assert _outcome(reference_hsolo_estimate, pool, config) == "NoModelFound"


@pytest.mark.parametrize("n", [200, 2000])
def test_walk_at_a_gate_that_squares_to_infinity_matches_reference(n):
    # epsilon_r=1e300 gives a threshold of +inf: no product runs, and every
    # seed is a candidate; every usable seed passes
    assert _gate_threshold(1e300) == math.inf
    pool = noisy_pool(n, 0.4, 400 + n)
    for seed in (1, 2):
        config = HsoloConfig(epsilon_r=1e300, seed=seed)
        want = _outcome(reference_hsolo_estimate, pool, config)
        assert want != "NoModelFound"
        assert _outcome(hsolo_estimate, pool, config) == want, seed


# --- filtered sets are cut lazily ---------------------------------------------
#
# The exact gate hands its caller a cut for each passing seed instead of the
# set: seed_medians cuts none, and hsolo_estimate cuts one for each passing
# seed of a search batch, whose inner searches run together before the walk
# replays them. Seeds cut for a batch that the walk then stops short of are
# speculative.


def _count_calls(monkeypatch, module, name: str) -> list:
    calls = []
    fn = getattr(module, name)

    def counting(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_seed_medians_builds_one_gate_pool_per_call(monkeypatch):
    # at n=2000 the blocks hold 32 seeds: 63 of them share one pool's gate
    pool = noisy_pool(2000, 0.2, 6)
    gate_pools = _count_calls(monkeypatch, estimator, "_GatePool")
    blocks = _count_calls(monkeypatch, estimator, "_exact_gate")
    assert seed_medians(pool, pool, 21).shape == (2000,)
    assert (len(gate_pools), len(blocks)) == (1, 63)


def test_seed_medians_cuts_no_filtered_set(monkeypatch):
    pool = noisy_pool(200, 0.4, 5)
    cuts = _count_calls(monkeypatch, estimator, "_filtered_set")
    medians = seed_medians(pool, pool, 21)
    assert np.all(medians <= math.inf)  # every seed passes a gate of +inf
    assert cuts == []


def _record_exact_gates(monkeypatch) -> list:
    """Wrap the walk's exact gate: per call, its row count, how many rows passed, and the walk positions cut.

    The walk labels each row of a batch with the seed's walk position, so a
    passing row yields its position with its cut.
    """
    batches = []
    exact_gate = estimator._exact_gate

    def recording_gate(top, ok, labels, gate, take, epsilon_r):
        medians, passing = exact_gate(top, ok, labels, gate, take, epsilon_r)
        cut_at = []
        batches.append((len(labels), int(np.count_nonzero(medians <= epsilon_r)), cut_at))

        def recorded(p, cut):
            def call():
                cut_at.append(p)
                return cut()

            return call

        return medians, ((p, recorded(p, cut)) for p, cut in passing)

    monkeypatch.setattr(estimator, "_exact_gate", recording_gate)
    return batches


def test_walk_cuts_one_filtered_set_per_inner_search(monkeypatch):
    batches = _record_exact_gates(monkeypatch)  # per search batch: rows, rows passed, positions cut
    cuts = _count_calls(monkeypatch, estimator, "_filtered_set")
    searches = _count_calls(monkeypatch, estimator, "_Search")
    speculative = 0
    for w, n in [(0.4, 500), (0.2, 500), (0.05, 2000)]:
        for seed in range(3):
            batches.clear()
            cuts.clear()
            searches.clear()
            result = hsolo_estimate(noisy_pool(n, w, n + round(100 * w)), HsoloConfig(seed=seed))
            cut_at = [p for _, _, batch_cuts in batches for p in batch_cuts]
            assert len(cuts) == len(searches) == len(cut_at) == len(set(cut_at)), (w, n, seed)
            # a batch holds at most _SEARCH_BATCH gate candidates, every one
            # within the budget at the batch's start, and only passing seeds
            # are cut
            for rows, passed, batch_cuts in batches:
                assert 1 <= rows <= estimator._SEARCH_BATCH, (w, n, seed)
                assert len(batch_cuts) <= passed, (w, n, seed)
            # every improvement comes from a seed that was cut and reached
            assert len(result.history) >= 1
            for h in result.history:
                assert h.iteration - 1 in cut_at and h.iteration <= result.iterations_run, (w, n, seed)
            # a seed is reached exactly when its position is below iterations_run
            speculative += sum(p >= result.iterations_run for p in cut_at)
    # some walks stopped before seeds that their last batch had passed
    assert speculative > 0


# --- refits only for seeds that bring a new inlier ------------------------------
#
# The walk refits a reached seed's model only if one of the model's raw
# inliers lies outside the best consensus set of that moment; the rest of
# the reached seeds whose searches found a model are passed over.


def test_walk_refits_only_seeds_with_an_inlier_outside_the_best(monkeypatch):
    batches = _record_exact_gates(monkeypatch)
    searches = []
    make_search = estimator._Search

    def recording_search(*args):
        searches.append(make_search(*args))
        return searches[-1]

    refits = []  # (index set, the best set at that moment) of every refit
    best = []  # the best set, as the walk keeps it
    consensus_refit = estimator._consensus_refit

    def recording_refit(model, idx, *args):
        refits.append((set(idx.tolist()), set(best[-1]) if best else None))
        got = consensus_refit(model, idx, *args)
        if not best or got[1].size > len(best[-1]):
            best.append(got[1].tolist())
        return got

    monkeypatch.setattr(estimator, "_Search", recording_search)
    monkeypatch.setattr(estimator, "_consensus_refit", recording_refit)
    total_refits = total_found = 0
    for seed in range(6):
        for record in (batches, searches, refits, best):
            record.clear()
        result = hsolo_estimate(noisy_pool(500, 0.05, 500 + seed), HsoloConfig(seed=seed))
        # every cut seed's position in the walk, in the order the searches are built
        cut_at = [p for _, _, batch_cuts in batches for p in batch_cuts]
        assert len(cut_at) == len(searches)
        found = sum(p < result.iterations_run and bool(s.improvements) for p, s in zip(cut_at, searches))
        assert 1 <= len(refits) <= found, seed
        assert refits[0][1] is None, seed
        for idx, best_then in refits[1:]:
            assert idx - best_then, seed
        assert len(result.history) == len(best), seed
        total_refits += len(refits)
        total_found += found
    # some reached seeds only re-find the plane the walk already holds, and are not refit
    assert total_refits < total_found
