"""Tests for the one-match similarity solver and the DLT solvers (4+ points and batched 4-point)."""

import math

import numpy as np
import pytest

from hsolo import (
    AffineFeature,
    Correspondence,
    DegenerateConfiguration,
    Homography,
    IllConditioned,
    Point2,
    SingularMatrix,
    as_pool,
    dlt_solve,
    project,
    reprojection_error,
    single_match_homography,
)
from hsolo.geometry import pool_arrays, project_points, transfer_errors
from hsolo.solvers import solve_minimal_batch
from hsolo.synthetic import random_scene_truth

from conftest import assert_models_equal_up_to_scale, exact_pool, pool_from_arrays, random_points, random_truth


def random_feature(rng, width=640.0, height=480.0) -> AffineFeature:
    return AffineFeature(
        Point2(rng.uniform(0, width), rng.uniform(0, height)),
        math.exp(rng.uniform(math.log(0.25), math.log(4.0))),
        rng.uniform(-math.pi, math.pi),
    )


class TestSingleMatchHomography:
    def test_identical_features_give_identity(self):
        f = AffineFeature(Point2(100.0, 50.0), 2.0, 0.3)
        h = single_match_homography(Correspondence(f, f))
        np.testing.assert_array_equal(h.m, np.eye(3))

    def test_fixed_point_maps_within_float_noise(self, rng):
        for _ in range(500):
            c = Correspondence(random_feature(rng), random_feature(rng))
            h = single_match_homography(c)
            assert reprojection_error(h, c) < 1e-9

    def test_linear_part_encodes_byproduct_ratios(self, rng):
        for _ in range(500):
            c = Correspondence(random_feature(rng), random_feature(rng))
            m = single_match_homography(c).m
            scale = math.hypot(m[0, 0], m[1, 0])
            angle = math.atan2(m[1, 0], m[0, 0])
            want_scale = c.b.scale / c.a.scale
            want_angle = c.b.angle - c.a.angle
            assert scale == pytest.approx(want_scale, rel=1e-12)
            delta = (angle - want_angle + math.pi) % (2 * math.pi) - math.pi
            assert abs(delta) < 1e-12
            # Pure similarity: no perspective terms.
            assert m[2, 0] == 0.0 and m[2, 1] == 0.0 and m[2, 2] == 1.0

    def test_swapped_correspondence_gives_inverse(self, rng):
        c = Correspondence(random_feature(rng), random_feature(rng))
        h = single_match_homography(c)
        h_back = single_match_homography(Correspondence(c.b, c.a))
        inverse = Homography(np.linalg.inv(h.m))
        np.testing.assert_allclose(h_back.m, inverse.m, rtol=0, atol=1e-12)


class TestDltSolve:
    def test_recovers_truth_from_four_corners(self, rng):
        truth = random_truth(rng)
        pts = [Point2(50.0, 50.0), Point2(590.0, 60.0), Point2(600.0, 430.0), Point2(40.0, 420.0)]
        pool = exact_pool(truth, pts)
        h = dlt_solve(pool)
        for c in pool:
            assert reprojection_error(h, c) < 1e-9
        np.testing.assert_allclose(h.m, truth.m, rtol=0, atol=1e-9)

    def test_recovers_truth_overdetermined(self, rng):
        truth = random_truth(rng)
        pool = exact_pool(truth, random_points(rng, 40))
        h = dlt_solve(pool)
        src, dst = pool_arrays(pool)
        assert transfer_errors(h.m, src, dst).max() < 1e-9

    def test_noisy_fit_stays_close(self, rng):
        truth = random_truth(rng)
        pts = random_points(rng, 60)
        pool = []
        for p in pts:
            q = project(truth, p)
            pool.append(
                Correspondence(
                    AffineFeature(p, 1.0, 0.0),
                    AffineFeature(
                        Point2(q.u + rng.normal(0, 0.5), q.v + rng.normal(0, 0.5)), 1.0, 0.0
                    ),
                )
            )
        h = dlt_solve(pool)
        src, dst = pool_arrays(pool)
        assert np.median(transfer_errors(h.m, src, dst)) < 1.5

    def test_rejects_fewer_than_four(self, rng):
        truth = random_truth(rng)
        with pytest.raises(ValueError):
            dlt_solve(exact_pool(truth, random_points(rng, 3)))

    def test_collinear_minimal_sample_is_degenerate(self):
        pts = [Point2(0.0, 0.0), Point2(100.0, 100.0), Point2(200.0, 200.0), Point2(10.0, 300.0)]
        pool = exact_pool(Homography.translation(1.0, 2.0), pts)
        with pytest.raises(DegenerateConfiguration):
            dlt_solve(pool)

    def test_coincident_points_are_degenerate(self):
        p = Point2(50.0, 50.0)
        pts = [p, p, Point2(100.0, 10.0), Point2(10.0, 100.0)]
        pool = exact_pool(Homography.identity(), pts)
        with pytest.raises(DegenerateConfiguration):
            dlt_solve(pool)

    @pytest.mark.parametrize("n", [4, 30])
    def test_coincident_targets_are_degenerate(self, rng, n):
        src = np.array([(p.u, p.v) for p in random_points(rng, n)])
        dst = np.tile([(200.0, 150.0)], (n, 1))
        with pytest.raises(DegenerateConfiguration, match="all target points coincide"):
            dlt_solve(pool_from_arrays(src, dst))

    def test_collinear_target_triple_is_singular(self):
        # sources in general position, but three targets on one line: the
        # least-squares fit exists and is singular, which Homography rejects
        src = np.array([(0.0, 0.0), (100.0, 0.0), (100.0, 80.0), (0.0, 80.0)])
        dst = np.array([(10.0, 10.0), (60.0, 35.0), (110.0, 60.0), (20.0, 90.0)])
        pool = pool_from_arrays(src, dst)
        for given in (pool, as_pool(pool)):
            with pytest.raises(SingularMatrix):
                dlt_solve(given)

    def test_collinear_cloud_is_degenerate(self, rng):
        # Many points on one line leave the solution underdetermined.
        pool = exact_pool(
            Homography.identity(),
            [Point2(10.0 * i, 5.0 * i + 3.0) for i in range(12)],
        )
        with pytest.raises(DegenerateConfiguration):
            dlt_solve(pool)

    @pytest.mark.parametrize("scatter, error", [(1e-6, IllConditioned), (1e-7, DegenerateConfiguration)])
    def test_nearly_collinear_cloud(self, scatter, error):
        # six points along a 100 px line, every other one moved off it by ``scatter`` px:
        # enough spread to pass the area check at 1e-6, but not a trustworthy design matrix
        pts = [Point2(20.0 * i, 50.0 + scatter * (i % 2)) for i in range(6)]
        with pytest.raises(error):
            dlt_solve(exact_pool(Homography.identity(), pts))


class TestSolveMinimalBatch:
    """The RANSAC minimal solver against the truth and the least-squares DLT on the same samples."""

    def test_recovers_noise_free_truths(self, rng):
        truths = np.array([random_scene_truth(rng, (640.0, 480.0)).m for _ in range(300)])
        src = rng.uniform(0.0, 1.0, size=(300, 4, 2)) * [640.0, 480.0]
        dst = np.array([project_points(m, s) for m, s in zip(truths, src)])
        models, valid = solve_minimal_batch(src, dst)
        assert valid.all()
        assert_models_equal_up_to_scale(models, truths, atol=1e-9)

    def test_far_out_and_tiny_coordinates_give_valid_models(self, rng):
        # each sample is solved in its own frame, so scales may mix in one batch
        corners = np.array([[160.0, 120.0], [480.0, 120.0], [480.0, 360.0], [160.0, 360.0]])
        src = corners + rng.uniform(-120.0, 120.0, size=(40, 4, 2))
        truths = np.array([random_truth(rng).m for _ in range(len(src))])
        dst = np.array([project_points(m, s) for m, s in zip(truths, src)])
        scales = np.repeat([1e-150, 1e150], 20)[:, None, None]
        with np.errstate(all="raise"):
            models, valid = solve_minimal_batch(src * scales, dst * scales)
        assert valid.all()
        # scaling both images by k turns H into diag(k, k, 1) H diag(1/k, 1/k, 1)
        back = models.copy()
        back[:, :2, 2] /= scales[:, :, 0]
        back[:, 2, :2] *= scales[:, 0]
        assert_models_equal_up_to_scale(back, truths, atol=1e-9)

    def test_exactly_singular_samples_are_invalid_without_raising(self):
        src = np.tile([[0.0, 0.0], [100.0, 0.0], [100.0, 80.0], [0.0, 80.0]], (5, 1, 1))
        dst = src + 7.0
        src[0] = 0.0  # everything at the origin
        dst[0] = 0.0
        src[1] = src[1, :1]  # four coincident sources
        src[2, 2] = (50.0, 0.0)  # three collinear sources
        dst[3] = dst[3, :1]  # four coincident targets
        with np.errstate(all="raise"):
            models, valid = solve_minimal_batch(src, dst)
        np.testing.assert_array_equal(valid, [False, False, False, False, True])
        assert np.isfinite(models).all()

    def test_matches_dlt_solve_in_general_position(self, rng):
        # each sample: one random point per image quadrant, and a random
        # desk-scale map's images of them moved by up to 5 px so the 4-point
        # fit is not the map itself
        corners = np.array([[160.0, 120.0], [480.0, 120.0], [480.0, 360.0], [160.0, 360.0]])
        src = corners + rng.uniform(-120.0, 120.0, size=(300, 4, 2))
        dst = np.empty_like(src)
        for i in range(len(src)):
            dst[i] = project_points(random_truth(rng).m, src[i]) + rng.uniform(-5.0, 5.0, (4, 2))
        models, valid = solve_minimal_batch(src, dst)
        assert valid.all()
        for i in range(len(src)):
            want = dlt_solve(pool_from_arrays(src[i], dst[i])).m
            got = Homography(models[i]).m
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), i

    def test_invalid_exactly_where_dlt_solve_is_degenerate(self, rng):
        src = rng.uniform(0.0, 640.0, size=(120, 4, 2))
        dst = src + rng.uniform(-5.0, 5.0, size=src.shape)
        # exact collinear triples: integer points on a line through point 0
        step = rng.integers(1, 20, size=(40, 2)).astype(float)
        for i in range(40):
            src[i, :3] = np.round(src[i, 0]) + np.outer([0.0, 1.0, 3.0], step[i])
        src[40:80, 2] = src[40:80, 1]  # two coincident source points
        dst[80:100] = dst[80:100, :1]  # all four targets coincident
        _, valid = solve_minimal_batch(src, dst)
        for i in range(len(src)):
            try:
                dlt_solve(pool_from_arrays(src[i], dst[i]))
                degenerate = False
            except DegenerateConfiguration:
                degenerate = True
            assert valid[i] == (not degenerate), i
        assert not valid[:100].any() and valid[100:].all()
