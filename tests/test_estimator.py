"""Tests for the scale/rotation-seeded estimation pipeline.

Covers the reprojection filter, the median gate, the data-driven threshold
estimate, Levenberg-Marquardt polish, and the full outer loop.
"""

import math

import numpy as np
import pytest

from hsolo import estimator
from hsolo import (
    AffineFeature,
    Correspondence,
    Homography,
    HsoloConfig,
    InsufficientData,
    NoModelFound,
    Point2,
    Refinement,
    SingularMatrix,
    estimate_epsilon_r,
    hsolo_estimate,
    project,
    refine_model,
    reprojection_error,
)
from hsolo.estimator import _residuals_and_jacobian
from hsolo.geometry import as_pool, pool_arrays, project_points, transfer_errors
from hsolo.synthetic import SceneSpec, generate_scene, jacobian_byproducts, random_scene_truth

from conftest import (
    exact_pool,
    filter_by_model,
    kernel_filter,
    make_byproduct_correspondence,
    pool_from_arrays,
    random_points,
    random_truth,
)


def sorted_filter_oracle(errors: np.ndarray, n_f: int):
    """Full stable sort on (error, index); independent of the heap code path."""
    take = min(n_f, len(errors))
    order = sorted(range(len(errors)), key=lambda i: (errors[i], i))[:take]
    return order, [float(errors[i]) for i in order]


class TestHsoloConfig:
    def test_defaults(self):
        cfg = HsoloConfig()
        assert cfg.n_f == 21 and cfg.w_f == 0.7 and cfg.epsilon_r == 20.0
        assert cfg.inlier_scaling == 0.7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_f": 4},
            {"w_f": 0.0},
            {"w_f": 1.0},
            {"epsilon_r": 0.0},
            {"inlier_scaling": 0.0},
            {"inlier_scaling": 1.5},
            {"epsilon": -1.0},
            {"p": 1.0},
            {"max_outer_iterations": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HsoloConfig(**kwargs)


class TestFilterByModel:
    def test_exact_matches_rank_first(self, rng):
        truth = random_truth(rng)
        pool = exact_pool(truth, random_points(rng, 5))
        # Append far-off pairs that cannot outrank the exact ones.
        for p in random_points(rng, 10):
            q = project(truth, p)
            pool.append(
                Correspondence(
                    AffineFeature(p, 1.0, 0.0),
                    AffineFeature(Point2(q.u + 50.0, q.v + 50.0), 1.0, 0.0),
                )
            )
        idx, _, median = filter_by_model(truth, pool, 5)
        assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]
        assert median == 0.0

    def test_keeps_whole_pool_when_small(self, rng):
        truth = random_truth(rng)
        pool = exact_pool(truth, random_points(rng, 6))
        idx, _, _ = filter_by_model(truth, pool, 21)
        assert len(idx) == 6

    def test_ties_broken_by_lower_index(self):
        c = Correspondence(
            AffineFeature(Point2(10.0, 10.0), 1.0, 0.0),
            AffineFeature(Point2(14.0, 10.0), 1.0, 0.0),
        )
        pool = [c, c, c, c, c, c]
        idx, _, _ = filter_by_model(Homography.identity(), pool, 3)
        assert idx.tolist() == [0, 1, 2]

    def test_agrees_with_full_sort_oracle(self, rng):
        for _ in range(300):
            errors = np.round(rng.uniform(0, 10, size=rng.integers(5, 40)), 1)
            n_f = int(rng.integers(5, 25))
            idx, median = kernel_filter(errors, n_f)
            want_idx, want_err = sorted_filter_oracle(errors, n_f)
            assert idx.tolist() == want_idx
            assert median == float(np.median(want_err))

    def test_median_of_even_count_averages_middle_pair(self):
        errors = np.array([4.0, 1.0, 3.0, 2.0, 9.0, 9.0])
        assert kernel_filter(errors, 4)[1] == (2.0 + 3.0) / 2

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            filter_by_model(Homography.identity(), [], 5)

    def test_degenerate_projections_rank_last(self):
        h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [0.01, 0, 1.0]]))
        pool = [
            Correspondence(
                AffineFeature(Point2(-100.0, 5.0), 1.0, 0.0),
                AffineFeature(Point2(0.0, 0.0), 1.0, 0.0),
            )
        ]
        for p in [Point2(1.0, 1.0), Point2(2.0, 2.0)]:
            pool.append(
                Correspondence(AffineFeature(p, 1.0, 0.0), AffineFeature(project(h, p), 1.0, 0.0))
            )
        idx, _, _ = filter_by_model(h, pool, 2)
        assert 0 not in idx.tolist()


class TestEstimateEpsilonR:
    def test_constant_errors(self):
        assert estimate_epsilon_r([5.0, 5.0, 5.0, 5.0]) == 5.0

    def test_linear_ramp(self):
        # q1 = 0.75, q3 = 2.25 under linear interpolation: 2.25 + 3 * 1.5 = 6.75
        assert estimate_epsilon_r([0.0, 1.0, 2.0, 3.0]) == pytest.approx(6.75)

    def test_requires_four_samples(self):
        with pytest.raises(InsufficientData):
            estimate_epsilon_r([1.0, 2.0, 3.0])

    def test_matches_percentile_oracle(self, rng):
        for _ in range(200):
            errors = rng.uniform(0, 30, size=rng.integers(4, 200))
            q1, q3 = np.percentile(errors, [25, 75])
            assert estimate_epsilon_r(errors) == pytest.approx(q3 + 3 * (q3 - q1), rel=1e-12)


class TestRefineModel:
    def _noisy_pool(self, rng, truth, n=30, sigma=0.5):
        src = np.array([(p.u, p.v) for p in random_points(rng, n)])
        return pool_from_arrays(src, project_points(truth.m, src) + rng.normal(0.0, sigma, (n, 2)))

    def test_exact_start_returns_same_model(self, rng):
        truth = random_truth(rng)
        pool = exact_pool(truth, random_points(rng, 12))
        ref = refine_model(truth, pool)
        np.testing.assert_array_equal(ref.model.m, truth.m)
        assert not ref.degraded
        assert ref.final_cost <= ref.initial_cost

    def test_perturbed_start_converges_back(self, rng):
        truth = random_truth(rng)
        pool = exact_pool(truth, random_points(rng, 25))
        m = truth.m.copy()
        m[:2, :] *= 1.0 + rng.uniform(-1e-3, 1e-3, size=(2, 3))
        ref = refine_model(Homography(m), pool)
        src, dst = pool_arrays(pool)
        assert transfer_errors(ref.model.m, src, dst).max() < 1e-8
        assert ref.final_cost < ref.initial_cost
        assert ref.iterations >= 1

    def test_never_degrades_cost(self, rng):
        truth = random_truth(rng)
        for trial in range(20):
            pool = self._noisy_pool(rng, truth)
            m = truth.m.copy()
            m[:2, 2] += rng.uniform(-2.0, 2.0, size=2)
            ref = refine_model(Homography(m), pool)
            assert ref.final_cost <= ref.initial_cost + 1e-12

    def test_improves_on_noisy_least_squares_seed(self, rng):
        from hsolo import dlt_solve

        truth = random_truth(rng)
        pool = self._noisy_pool(rng, truth, n=40, sigma=1.0)
        seed = dlt_solve(pool)
        src, dst = pool_arrays(pool)
        cost_seed = float(np.sum(transfer_errors(seed.m, src, dst) ** 2))
        ref = refine_model(seed, pool)
        cost_ref = float(np.sum(transfer_errors(ref.model.m, src, dst) ** 2))
        assert cost_ref <= cost_seed + 1e-9

    def test_requires_four_correspondences(self, rng):
        truth = random_truth(rng)
        with pytest.raises(ValueError):
            refine_model(truth, exact_pool(truth, random_points(rng, 3)))

    def test_vanishing_corner_entry_marks_degraded(self, rng):
        # The 8-parameter chart fixes the corner entry at 1; a model with that
        # entry at 0 cannot be expressed and is returned untouched.
        perm = Homography(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        pool = exact_pool(random_truth(rng), random_points(rng, 8))
        ref = refine_model(perm, pool)
        assert ref.degraded
        np.testing.assert_array_equal(ref.model.m, perm.m)

    @staticmethod
    def _assert_unrefined(ref, h):
        """Refinement could not run: the input comes back, flagged, at its own cost."""
        assert ref.degraded and ref.model is h
        assert ref.final_cost == ref.initial_cost

    def _perturbed_start(self, rng):
        truth = random_truth(rng)
        pool = exact_pool(truth, random_points(rng, 25))
        m = truth.m.copy()
        m[:2, :] *= 1.0 + rng.uniform(-1e-3, 1e-3, size=(2, 3))
        return Homography(m), pool

    def test_inlier_on_the_line_at_infinity_marks_degraded(self, rng):
        # source (-100, 5) has w = 0.01 * -100 + 1 = 0: its residual is not finite
        h = Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.01, 0.0, 1.0]]))
        src = np.array([(p.u, p.v) for p in random_points(rng, 8)] + [(-100.0, 5.0)])
        dst = project_points(h.m, src[:8])
        pool = pool_from_arrays(src, np.vstack([dst, [(300.0, 200.0)]]))
        ref = refine_model(h, pool)
        self._assert_unrefined(ref, h)
        assert ref.iterations == 0

    def test_failed_first_solve_marks_degraded(self, rng, monkeypatch):
        h, pool = self._perturbed_start(rng)

        def failing_solve(a, b):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        ref = refine_model(h, pool)
        self._assert_unrefined(ref, h)
        assert ref.iterations == 1

    def test_failed_later_solve_keeps_the_lower_cost(self, rng, monkeypatch):
        h, pool = self._perturbed_start(rng)
        real_solve, calls = np.linalg.solve, []

        def solve_once(a, b):
            calls.append(a)
            if len(calls) > 1:
                raise np.linalg.LinAlgError("singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve_once)
        ref = refine_model(h, pool)
        assert len(calls) == 2 and ref.iterations == 2
        assert not ref.degraded and ref.model is not h
        assert ref.final_cost < ref.initial_cost
        src, dst = pool_arrays(pool)
        np.testing.assert_allclose(np.sum(transfer_errors(ref.model.m, src, dst) ** 2), ref.final_cost, rtol=1e-9)

    @pytest.mark.parametrize("error", [SingularMatrix, ValueError])
    def test_rejected_refined_matrix_marks_degraded(self, rng, monkeypatch, error):
        h, pool = self._perturbed_start(rng)
        built = []

        def rejecting_homography(m):
            built.append(m)
            raise error("rejected")

        monkeypatch.setattr(estimator, "Homography", rejecting_homography)
        ref = refine_model(h, pool)
        assert len(built) == 1 and built[0][8] == 1.0  # the refined chart, h9 = 1
        self._assert_unrefined(ref, h)
        assert ref.iterations >= 1


@pytest.mark.parametrize(
    "refined, degraded, n_shifted, want",
    [
        ("truth", False, 0, np.arange(20)),  # usable: its inliers over the whole pool
        ("truth", True, 0, None),  # degraded: the winner stands
        ("shifted", False, 3, None),  # fewer than 4 inliers: the winner stands
        ("shifted", False, 4, np.arange(20, 24)),
    ],
    ids=["usable", "degraded", "three-inliers", "four-inliers"],
)
def test_polish_takes_a_usable_refinement_only(rng, monkeypatch, refined, degraded, n_shifted, want):
    """``_polish`` with a fake ``refine_model`` outcome, on 20 exact matches of
    a truth, ``n_shifted`` of the truth shifted by 100 px and 5 random pairs."""
    truth = random_truth(rng)
    models = {"truth": truth, "shifted": Homography(Homography.translation(100.0, 0.0).m @ truth.m)}
    outliers = pool_from_arrays(rng.uniform(0.0, 640.0, (5, 2)), rng.uniform(0.0, 480.0, (5, 2)))
    exact = exact_pool(truth, random_points(rng, 20)) + exact_pool(models["shifted"], random_points(rng, n_shifted))
    pool = as_pool(exact + outliers)
    calls = []

    def fake_refine(h, inliers):
        calls.append((h, inliers))
        return Refinement(models[refined], 1.0, 0.5, 3, degraded)

    monkeypatch.setattr(estimator, "refine_model", fake_refine)
    winner, winner_idx = Homography.identity(), np.arange(10)
    model, idx = estimator._polish(winner, winner_idx, pool, *pool_arrays(pool), 4.0)
    assert calls == [(winner, pool[winner_idx])]  # refined on the winner's inliers
    if want is None:
        assert model is winner and idx is winner_idx
    else:
        assert model is models[refined]
        np.testing.assert_array_equal(idx, want)


class TestJacobian:
    def test_matches_central_differences(self, rng):
        src = rng.uniform(0, 640, size=(15, 2))
        dst = rng.uniform(0, 480, size=(15, 2))
        for _ in range(10):
            params = np.concatenate(
                [
                    1.0 + rng.uniform(-0.2, 0.2, 2),
                    rng.uniform(-30, 30, 1),
                    rng.uniform(-0.2, 0.2, 2),
                    rng.uniform(-30, 30, 1),
                    rng.uniform(-1e-4, 1e-4, 2),
                ]
            )
            params = params[[0, 1, 2, 3, 4, 5, 6, 7]]
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
            assert np.max(np.abs(jac - fd) / scale) < 1e-5


def scene_pool(seed, w=0.10, n=500, **noise):
    rng = np.random.default_rng(seed)
    truth = random_scene_truth(rng, (640.0, 480.0))
    spec = SceneSpec(
        truth=truth,
        image_bounds=(640.0, 480.0),
        n_total=n,
        inlier_rate=w,
        seed=seed + 1,
        **noise,
    )
    pool, mask = generate_scene(spec)
    return truth, pool, mask


class TestHsoloEstimate:
    def test_exact_translation_pool_succeeds_immediately(self, rng):
        truth = Homography.translation(30.0, -12.0)
        pool = exact_pool(truth, random_points(rng, 50))
        res = hsolo_estimate(pool, HsoloConfig(seed=1))
        assert res.history[0].iteration == 1
        assert res.support == 50
        np.testing.assert_allclose(res.model.m, truth.m, rtol=0, atol=1e-6)

    def test_recovers_truth_at_ten_percent_inliers(self):
        truth, pool, mask = scene_pool(seed=100)
        res = hsolo_estimate(pool, HsoloConfig(seed=7))
        true_set = set(np.flatnonzero(mask).tolist())
        found = set(int(i) for i in res.inlier_indices)
        assert len(found & true_set) >= 0.9 * len(true_set)
        # Few spurious members: everything reported satisfies the threshold.
        src, dst = pool_arrays(pool)
        errs = transfer_errors(res.model.m, src, dst)
        assert np.all(errs[res.inlier_indices] <= 4.0)

    def test_inlier_indices_refer_to_caller_order(self):
        truth, pool, mask = scene_pool(seed=200)
        res = hsolo_estimate(pool, HsoloConfig(seed=3))
        assert np.all(np.diff(res.inlier_indices) > 0)
        for i in res.inlier_indices[:10]:
            assert reprojection_error(res.model, pool[int(i)]) <= 4.0

    def test_same_seed_reproduces_bitwise(self):
        _, pool, _ = scene_pool(seed=300)
        cfg = HsoloConfig(seed=17)
        r1 = hsolo_estimate(pool, cfg)
        r2 = hsolo_estimate(pool, cfg)
        np.testing.assert_array_equal(r1.model.m, r2.model.m)
        np.testing.assert_array_equal(r1.inlier_indices, r2.inlier_indices)
        assert r1.iterations_run == r2.iterations_run

    def test_outer_budget_respects_scaled_rate(self):
        """With inlier scaling 0.7 the ceiling for any run is the w=0.7*w_hat budget."""
        from hsolo import required_iterations

        truth, pool, mask = scene_pool(seed=400)
        res = hsolo_estimate(pool, HsoloConfig(seed=4))
        w_hat = res.support / len(pool)
        assert res.k_final >= 1
        assert res.iterations_run <= required_iterations(min(1.0, 0.7 * w_hat), 1, 0.95)

    def test_small_pool_rejected(self, rng):
        truth = random_truth(rng)
        pool = [
            make_byproduct_correspondence(truth, p, rng) for p in random_points(rng, 4)
        ]
        with pytest.raises(ValueError):
            hsolo_estimate(pool, HsoloConfig())

    def test_hopeless_pool_raises_no_model(self, rng):
        pool = []
        for _ in range(10):
            pool.append(
                Correspondence(
                    AffineFeature(
                        Point2(rng.uniform(0, 640), rng.uniform(0, 480)),
                        math.exp(rng.uniform(-1, 1)),
                        rng.uniform(-math.pi, math.pi),
                    ),
                    AffineFeature(
                        Point2(rng.uniform(0, 640), rng.uniform(0, 480)),
                        math.exp(rng.uniform(-1, 1)),
                        rng.uniform(-math.pi, math.pi),
                    ),
                )
            )
        with pytest.raises(NoModelFound) as exc:
            hsolo_estimate(pool, HsoloConfig(epsilon_r=1e-6, seed=0))
        # no seed passes the gate, so the walk runs to the end of the pool
        assert exc.value.iterations_run == len(pool)

    # the last is a 1/200 scale ratio, as an outlier match between a coarse
    # and a fine feature can give; its sketch fails Homography's determinant
    # test against a 360 px translation
    @pytest.mark.parametrize("scales", [(1e-200, 1e200), (1e200, 1e-200), (40.0, 0.2)])
    @pytest.mark.parametrize("position", [0, 150, 299])
    def test_extreme_byproduct_row_is_skipped_not_fatal(self, scales, position):
        """A seed whose sketch overflows or is singular fails the gate instead of raising."""
        pool, mask = generate_scene(
            SceneSpec(
                truth=random_scene_truth(np.random.default_rng(5), (640.0, 480.0)),
                image_bounds=(640.0, 480.0),
                n_total=299,
                inlier_rate=0.05,
                seed=3,
            )
        )
        extreme = Correspondence(
            AffineFeature(Point2(100.0, 120.0), scales[0], 0.3),
            AffineFeature(Point2(300.0, 200.0), scales[1], -0.2),
        )
        pool = list(pool)
        pool.insert(position, extreme)
        res = hsolo_estimate(pool, HsoloConfig(seed=0))
        assert res.support == len(res.inlier_indices) >= 0.9 * mask.sum()
        src, dst = pool_arrays(pool)
        assert np.all(transfer_errors(res.model.m, src, dst)[res.inlier_indices] <= 4.0)

    def test_gate_rejects_most_outlier_seeds(self):
        """Sketches grown from outliers rarely collect a low-error neighborhood."""
        truth, pool, mask = scene_pool(seed=500)
        outlier_idx = np.flatnonzero(~mask)
        rejected = 0
        checked = 0
        from hsolo.solvers import single_match_homography

        for i in outlier_idx[:50]:
            h_prime = single_match_homography(pool[int(i)])
            _, _, median = filter_by_model(h_prime, pool, 21)
            checked += 1
            if not median <= 20.0:
                rejected += 1
        assert rejected / checked > 0.5

    def test_filtered_subsets_from_inlier_seeds_are_enriched(self):
        """Seeding from a true inlier concentrates true inliers in the subset."""
        hits = 0
        for trial in range(60):
            truth, pool, mask = scene_pool(seed=1000 + trial)
            inlier_idx = np.flatnonzero(mask)
            seed_rng = np.random.default_rng(trial)
            i = int(inlier_idx[seed_rng.integers(len(inlier_idx))])
            from hsolo.solvers import single_match_homography

            idx, _, _ = filter_by_model(single_match_homography(pool[i]), pool, 21)
            if mask[idx].mean() >= 0.7:
                hits += 1
        assert hits / 60 >= 0.8
