"""Tests for the plane-geometry primitives: points, features, and homographies."""

import dataclasses
import math

import numpy as np
import pytest

from hsolo import (
    AffineFeature,
    Correspondence,
    DegenerateProjection,
    Homography,
    InvalidFeature,
    Point2,
    SingularMatrix,
    compose,
    invert,
    project,
    reprojection_error,
)
from hsolo.geometry import normalize_angle, pool_arrays, project_points, transfer_errors

from conftest import exact_pool, random_points, random_truth


class TestNormalizeAngle:
    def test_interval_is_closed_open(self):
        assert normalize_angle(math.pi) == -math.pi
        assert normalize_angle(-math.pi) == -math.pi
        assert normalize_angle(0.0) == 0.0

    def test_wraps_multiples(self):
        assert normalize_angle(3 * math.pi) == pytest.approx(-math.pi)
        assert normalize_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
        assert normalize_angle(-3.5 * math.pi) == pytest.approx(0.5 * math.pi)

    def test_range_over_random_inputs(self, rng):
        for x in rng.uniform(-50.0, 50.0, size=200):
            wrapped = normalize_angle(float(x))
            assert -math.pi <= wrapped < math.pi
            # Same direction up to a full turn.
            assert math.isclose(
                math.cos(wrapped), math.cos(x), abs_tol=1e-12
            ) and math.isclose(math.sin(wrapped), math.sin(x), abs_tol=1e-12)


class TestPointsAndFeatures:
    def test_point_coerces_to_float(self):
        p = Point2(3, 4)
        assert isinstance(p.u, float) and isinstance(p.v, float)
        assert (p.u, p.v) == (3.0, 4.0)

    def test_point_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point2(math.nan, 0.0)
        with pytest.raises(ValueError):
            Point2(0.0, math.inf)

    def test_point_is_frozen(self):
        p = Point2(1.0, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.u = 5.0

    def test_feature_normalizes_angle(self):
        f = AffineFeature(Point2(0, 0), 1.0, 3 * math.pi)
        assert f.angle == pytest.approx(-math.pi)

    def test_feature_rejects_bad_scale(self):
        with pytest.raises(InvalidFeature):
            AffineFeature(Point2(0, 0), 0.0, 0.0)
        with pytest.raises(InvalidFeature):
            AffineFeature(Point2(0, 0), -2.0, 0.0)
        with pytest.raises(InvalidFeature):
            AffineFeature(Point2(0, 0), math.nan, 0.0)

    def test_correspondence_swapped(self):
        c = Correspondence(
            AffineFeature(Point2(1, 2), 2.0, 0.5),
            AffineFeature(Point2(3, 4), 1.0, -0.5),
        )
        s = c.swapped()
        assert s.a == c.b and s.b == c.a


class TestHomographyConstruction:
    def test_canonical_last_entry_is_one(self):
        h = Homography(np.diag([2.0, 2.0, 2.0]))
        np.testing.assert_array_equal(h.m, np.eye(3))
        assert h.m[2, 2] == 1.0

    def test_accepts_flat_nine(self):
        h = Homography([1, 0, 5, 0, 1, -3, 0, 0, 1])
        assert h.m[0, 2] == 5.0 and h.m[1, 2] == -3.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Homography(np.eye(2))
        with pytest.raises(ValueError):
            Homography([1.0] * 8)

    def test_rejects_non_finite(self):
        m = np.eye(3)
        m[0, 0] = math.inf
        with pytest.raises(ValueError):
            Homography(m)

    def test_rejects_singular(self):
        with pytest.raises(SingularMatrix):
            Homography(np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]]))
        with pytest.raises(ValueError):
            Homography(np.zeros((3, 3)))

    def test_unit_norm_fallback_when_last_entry_vanishes(self):
        # A nonsingular projective map whose bottom-right entry is exactly zero.
        perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        h = Homography(perm)
        assert h.m[2, 2] == 0.0
        assert np.linalg.norm(h.m) == pytest.approx(1.0, abs=1e-15)
        # First entry of largest magnitude is made positive.
        flat = h.m.ravel()
        assert flat[np.argmax(np.abs(flat))] > 0

    def test_canonicalization_is_idempotent(self, rng):
        for _ in range(50):
            h = random_truth(rng)
            again = Homography(h.m)
            np.testing.assert_array_equal(h.m, again.m)

    def test_scale_invariance(self, rng):
        h = random_truth(rng)
        np.testing.assert_allclose(Homography(h.m * -7.3).m, h.m, rtol=0, atol=1e-12)

    def test_matrix_is_read_only(self):
        h = Homography.identity()
        with pytest.raises(ValueError):
            h.m[0, 0] = 2.0

    def test_entries_row_major(self):
        h = Homography.translation(4.0, -1.0)
        assert h.entries == (1.0, 0.0, 4.0, 0.0, 1.0, -1.0, 0.0, 0.0, 1.0)

    def test_identity_and_translation_factories(self):
        np.testing.assert_array_equal(Homography.identity().m, np.eye(3))
        t = Homography.translation(2.0, 3.0)
        assert project(t, Point2(1.0, 1.0)) == Point2(3.0, 4.0)


class TestProjection:
    def test_translation_moves_point(self):
        q = project(Homography.translation(10.0, -5.0), Point2(1.0, 2.0))
        assert (q.u, q.v) == (11.0, -3.0)

    def test_projective_division(self):
        h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 2.0]]))
        # Equivalent to diag(0.5, 0.5, 1): points are halved.
        assert project(h, Point2(8.0, 4.0)) == Point2(4.0, 2.0)

    def test_degenerate_projection_raises(self):
        h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [0.01, 0, 1.0]]))
        with pytest.raises(DegenerateProjection):
            project(h, Point2(-100.0, 7.0))

    def test_reprojection_error_zero_on_exact_pair(self, rng):
        truth = random_truth(rng)
        for p in random_points(rng, 20):
            c = Correspondence(
                AffineFeature(p, 1.0, 0.0), AffineFeature(project(truth, p), 1.0, 0.0)
            )
            assert reprojection_error(truth, c) == 0.0

    def test_reprojection_error_is_euclidean(self):
        c = Correspondence(
            AffineFeature(Point2(0, 0), 1.0, 0.0),
            AffineFeature(Point2(3.0, 4.0), 1.0, 0.0),
        )
        assert reprojection_error(Homography.identity(), c) == 5.0


class TestComposeInvert:
    def test_invert_round_trip(self, rng):
        h = random_truth(rng)
        np.testing.assert_allclose(invert(invert(h)).m, h.m, rtol=0, atol=1e-12)

    def test_compose_with_inverse_is_identity(self, rng):
        h = random_truth(rng)
        np.testing.assert_allclose(compose(invert(h), h).m, np.eye(3), rtol=0, atol=1e-12)

    def test_compose_applies_second_argument_first(self, rng):
        h1 = Homography.translation(5.0, 0.0)
        h2 = Homography(np.diag([2.0, 2.0, 1.0]))
        p = Point2(1.0, 1.0)
        # compose(h1, h2) maps p through h2, then h1.
        expected = project(h1, project(h2, p))
        got = project(compose(h1, h2), p)
        assert got.u == pytest.approx(expected.u) and got.v == pytest.approx(expected.v)
        assert (got.u, got.v) == (7.0, 2.0)


class TestPoolArrays:
    def test_shapes_and_values(self, rng):
        truth = random_truth(rng)
        pool = exact_pool(truth, random_points(rng, 7))
        src, dst = pool_arrays(pool)
        assert src.shape == (7, 2) and dst.shape == (7, 2)
        assert src[3, 0] == pool[3].a.p.u and dst[3, 1] == pool[3].b.p.v

    def test_transfer_errors_match_scalar_path(self, rng):
        truth = random_truth(rng)
        pool = exact_pool(truth, random_points(rng, 30))
        probe = random_truth(rng)
        src, dst = pool_arrays(pool)
        errs = transfer_errors(probe.m, src, dst)
        expected = np.array([reprojection_error(probe, c) for c in pool])
        np.testing.assert_array_equal(errs, expected)

    def test_transfer_errors_infinite_at_degenerate_points(self):
        h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [0.01, 0, 1.0]]))
        src = np.array([[-100.0, 7.0], [1.0, 1.0]])
        dst = np.array([[0.0, 0.0], [1.0, 1.0]])
        errs = transfer_errors(h.m, src, dst)
        assert errs[0] == math.inf
        assert math.isfinite(errs[1])
        xy, ok = project_points(h.m, src)
        assert ok.tolist() == [False, True]
        assert np.all(xy[0] == math.inf)
        with pytest.raises(DegenerateProjection):
            project(h, Point2(-100.0, 7.0))
        q = project(h, Point2(1.0, 1.0))
        assert (q.u, q.v) == tuple(xy[1])
