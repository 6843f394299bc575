"""Tests for ground-truth scene generation and local Jacobian byproducts."""

import math

import numpy as np
import pytest

from hsolo import (
    DegenerateProjection,
    Homography,
    InfeasibleSpec,
    Point2,
    SceneSpec,
    generate_scene,
    jacobian_byproducts,
    project,
    random_scene_truth,
    reprojection_error,
    single_match_homography,
)
from hsolo.geometry import pool_arrays, transfer_errors

from conftest import random_truth


def rotation_about(cx, cy, theta, scale=1.0):
    c, s = scale * math.cos(theta), scale * math.sin(theta)
    t = np.array([[1.0, 0, cx], [0, 1.0, cy], [0, 0, 1.0]])
    r = np.array([[c, -s, 0.0], [s, c, 0.0], [0, 0, 1.0]])
    t_inv = np.array([[1.0, 0, -cx], [0, 1.0, -cy], [0, 0, 1.0]])
    return Homography(t @ r @ t_inv)


def fd_byproducts(h: Homography, p: Point2, step=1e-6):
    """Finite-difference Jacobian of the projection, reduced to scale/angle."""
    du = project(h, Point2(p.u + step, p.v))
    du0 = project(h, Point2(p.u - step, p.v))
    dv = project(h, Point2(p.u, p.v + step))
    dv0 = project(h, Point2(p.u, p.v - step))
    j = np.array(
        [
            [(du.u - du0.u) / (2 * step), (dv.u - dv0.u) / (2 * step)],
            [(du.v - du0.v) / (2 * step), (dv.v - dv0.v) / (2 * step)],
        ]
    )
    det = np.linalg.det(j)
    if det > 0:
        return math.sqrt(det), math.atan2(j[1, 0] - j[0, 1], j[0, 0] + j[1, 1])
    u, sv, vt = np.linalg.svd(j)
    q = u @ vt
    return math.sqrt(sv[0] * sv[1]), math.atan2(q[1, 0], q[0, 0])


class TestJacobianByproducts:
    def test_identity_map(self):
        lb = jacobian_byproducts(Homography.identity(), Point2(100.0, 100.0))
        assert lb.scale_ratio == 1.0
        assert lb.angle_delta == 0.0

    def test_pure_similarity(self):
        h = rotation_about(0.0, 0.0, math.pi / 6, scale=2.0)
        lb = jacobian_byproducts(h, Point2(37.0, -5.0))
        assert lb.scale_ratio == pytest.approx(2.0, rel=1e-12)
        assert lb.angle_delta == pytest.approx(math.pi / 6, rel=1e-12)

    def test_translation_only(self):
        lb = jacobian_byproducts(Homography.translation(50.0, -20.0), Point2(1.0, 2.0))
        assert lb.scale_ratio == pytest.approx(1.0)
        assert lb.angle_delta == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_differences(self, rng):
        for _ in range(50):
            h = random_truth(rng)
            p = Point2(rng.uniform(50, 600), rng.uniform(50, 430))
            lb = jacobian_byproducts(h, p)
            fd_scale, fd_angle = fd_byproducts(h, p)
            assert lb.scale_ratio == pytest.approx(fd_scale, rel=1e-5)
            delta = (lb.angle_delta - fd_angle + math.pi) % (2 * math.pi) - math.pi
            assert abs(delta) < 1e-5

    def test_reflection_matches_svd_polar_factor(self, rng):
        for _ in range(200):
            m = random_truth(rng).m * [-1.0, 1.0, 1.0]  # mirror the source x axis
            p = Point2(rng.uniform(50, 600), rng.uniform(50, 430))
            x, y, w = m @ (p.u, p.v, 1.0)
            jac = (m[:2, :2] - np.outer((x / w, y / w), m[2, :2])) / w
            assert np.linalg.det(jac) < 0.0
            u, sv, vt = np.linalg.svd(jac)
            q = u @ vt
            lb = jacobian_byproducts(Homography(m), p)
            assert lb.scale_ratio == pytest.approx(math.sqrt(sv[0] * sv[1]), rel=1e-12)
            delta = lb.angle_delta - math.atan2(q[1, 0], q[0, 0])
            assert abs((delta + math.pi) % (2 * math.pi) - math.pi) < 1e-12

    def test_degenerate_point_raises(self):
        h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [0.01, 0, 1.0]]))
        with pytest.raises(DegenerateProjection):
            jacobian_byproducts(h, Point2(-100.0, 0.0))


class TestSceneSpecValidation:
    def test_defaults_are_noise_free(self):
        spec = SceneSpec(truth=Homography.identity(), image_bounds=(640.0, 480.0), n_total=10,
                         inlier_rate=0.5)
        assert spec.pixel_noise_sigma == 0.0
        assert spec.scale_noise_sigma == 0.0
        assert spec.angle_noise_sigma == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_total": 0},
            {"inlier_rate": -0.1},
            {"inlier_rate": 1.5},
            {"image_bounds": (0.0, 480.0)},
            {"pixel_noise_sigma": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(truth=Homography.identity(), image_bounds=(640.0, 480.0),
                    n_total=10, inlier_rate=0.5)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SceneSpec(**base)


class TestGenerateScene:
    def make(self, seed=0, w=0.1, n=200, truth=None, **noise):
        truth = truth if truth is not None else random_scene_truth(
            np.random.default_rng(seed), (640.0, 480.0)
        )
        spec = SceneSpec(truth=truth, image_bounds=(640.0, 480.0), n_total=n,
                         inlier_rate=w, seed=seed, **noise)
        pool, mask = generate_scene(spec)
        return truth, pool, mask

    @pytest.mark.parametrize("n,w", [(200, 0.1), (100, 0.03), (50, 1.0), (33, 0.5)])
    def test_realized_rate_is_rounded_exactly(self, n, w):
        _, pool, mask = self.make(seed=1, w=w, n=n)
        assert len(pool) == n
        assert int(mask.sum()) == round(n * w)

    def test_inliers_have_exactly_zero_error(self):
        truth, pool, mask = self.make(seed=2)
        for i in np.flatnonzero(mask):
            assert reprojection_error(truth, pool[int(i)]) == 0.0

    def test_outliers_mostly_violate_truth(self):
        truth, pool, mask = self.make(seed=3)
        src, dst = pool_arrays(pool)
        errs = transfer_errors(truth.m, src, dst)
        outlier_errs = errs[~mask]
        assert np.mean(outlier_errs > 4.0) > 0.9

    def test_identity_truth_keeps_points_fixed(self):
        _, pool, mask = self.make(seed=4, truth=Homography.identity(), w=1.0, n=40)
        for c in pool:
            assert c.a.p == c.b.p
            assert c.b.scale == c.a.scale
            assert c.b.angle == c.a.angle

    def test_rotation_truth_shifts_all_angles(self):
        theta = math.radians(10.0)
        truth = rotation_about(320.0, 240.0, theta)
        _, pool, mask = self.make(seed=5, truth=truth, w=1.0, n=40)
        for c in pool:
            delta = (c.b.angle - c.a.angle + math.pi) % (2 * math.pi) - math.pi
            assert delta == pytest.approx(theta, abs=1e-12)
            assert c.b.scale / c.a.scale == pytest.approx(1.0, rel=1e-12)

    def test_byproducts_agree_with_truth_jacobian(self):
        truth, pool, mask = self.make(seed=6, w=0.3)
        for i in np.flatnonzero(mask)[:20]:
            c = pool[int(i)]
            lb = jacobian_byproducts(truth, c.a.p)
            assert c.b.scale / c.a.scale == pytest.approx(lb.scale_ratio, abs=1e-9)
            delta = (c.b.angle - c.a.angle - lb.angle_delta + math.pi) % (2 * math.pi) - math.pi
            assert abs(delta) < 1e-9

    def test_one_match_sketch_tracks_truth_nearby(self):
        """The sketch from any clean inlier stays within 2 px on a 10 px disc."""
        truth, pool, mask = self.make(seed=7, w=0.2, n=300)
        for i in np.flatnonzero(mask)[:10]:
            c = pool[int(i)]
            h_prime = single_match_homography(c)
            worst = 0.0
            for k in range(16):
                phi = 2 * math.pi * k / 16
                p = Point2(c.a.p.u + 10 * math.cos(phi), c.a.p.v + 10 * math.sin(phi))
                q_true = project(truth, p)
                q_sketch = project(h_prime, p)
                worst = max(worst, math.hypot(q_true.u - q_sketch.u, q_true.v - q_sketch.v))
            assert worst < 2.0

    def test_same_spec_reproduces_bitwise(self):
        t1, pool1, mask1 = self.make(seed=8)
        t2, pool2, mask2 = self.make(seed=8)
        np.testing.assert_array_equal(mask1, mask2)
        for c1, c2 in zip(pool1, pool2):
            assert c1.a == c2.a and c1.b == c2.b

    def test_pixel_noise_perturbs_targets(self):
        truth, pool, mask = self.make(seed=9, w=1.0, n=300, pixel_noise_sigma=1.0)
        src, dst = pool_arrays(pool)
        errs = transfer_errors(truth.m, src, dst)
        # Rayleigh mean is sigma * sqrt(pi/2) ~ 1.25 at sigma 1.
        assert 0.9 < errs.mean() < 1.7
        assert errs.min() > 0.0

    def test_scale_noise_is_log_normal_on_target(self):
        truth, pool, mask = self.make(seed=10, w=1.0, n=2000, scale_noise_sigma=0.1)
        logs = []
        for c in pool:
            lb = jacobian_byproducts(truth, c.a.p)
            logs.append(math.log(c.b.scale / (c.a.scale * lb.scale_ratio)))
        assert abs(np.mean(logs)) < 0.02
        assert np.std(logs) == pytest.approx(0.1, abs=0.02)

    def test_angle_noise_is_gaussian_on_target(self):
        truth, pool, mask = self.make(seed=11, w=1.0, n=2000, angle_noise_sigma=0.05)
        deltas = []
        for c in pool:
            lb = jacobian_byproducts(truth, c.a.p)
            d = (c.b.angle - c.a.angle - lb.angle_delta + math.pi) % (2 * math.pi) - math.pi
            deltas.append(d)
        assert abs(np.mean(deltas)) < 0.01
        assert np.std(deltas) == pytest.approx(0.05, abs=0.01)

    def test_outlier_scales_respect_range(self):
        _, pool, mask = self.make(seed=12, w=0.1, n=400)
        for i in np.flatnonzero(~mask):
            c = pool[int(i)]
            assert 0.5 <= c.a.scale <= 2.0
            assert 0.5 <= c.b.scale <= 2.0

    def test_unreachable_targets_raise(self):
        truth = Homography.translation(5000.0, 0.0)
        spec = SceneSpec(truth=truth, image_bounds=(640.0, 480.0), n_total=100,
                         inlier_rate=0.5, seed=0)
        with pytest.raises(InfeasibleSpec):
            generate_scene(spec)


class TestRandomSceneTruth:
    def test_keeps_central_region_visible(self):
        bounds = (640.0, 480.0)
        for seed in range(30):
            truth = random_scene_truth(np.random.default_rng(seed), bounds)
            for fx, fy in [(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8), (0.5, 0.5)]:
                q = project(truth, Point2(fx * bounds[0], fy * bounds[1]))
                assert -0.5 * bounds[0] < q.u < 1.5 * bounds[0]
                assert -0.5 * bounds[1] < q.v < 1.5 * bounds[1]

    def test_depends_on_generator_state(self):
        g = np.random.default_rng(0)
        t1 = random_scene_truth(g, (640.0, 480.0))
        t2 = random_scene_truth(g, (640.0, 480.0))
        assert not np.array_equal(t1.m, t2.m)
