"""Tests for the plane-geometry primitives: points, features, and homographies."""

import dataclasses
import math
import pickle
import warnings

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
    project,
    reprojection_error,
)
from hsolo.geometry import (
    Pool,
    apply_homogeneous,
    as_pool,
    normalize_angle,
    pool_arrays,
    project_points,
    transfer_errors,
)

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

    def test_an_array_wraps_as_its_floats_do(self, rng):
        edges = [0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 5e-324, -5e-324]
        near_edges = [c + rng.normal(0.0, 1e-15, 500) for c in (0.0, -math.pi, math.pi)]
        angles = np.concatenate([edges, rng.uniform(-50.0, 50.0, 1000), *near_edges])
        want = np.array([normalize_angle(a) for a in angles.tolist()])
        got = normalize_angle(angles)
        assert got.tobytes() == want.tobytes()
        assert ((-math.pi <= got) & (got < math.pi)).all()

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

    def test_rejects_a_subnormal_matrix_without_warning(self):
        # LAPACK's determinant of this canonical matrix divides by zero
        m = [[-1.0, 1e-300, -1.0], [0.0, 0.0, -1.0], [1e-300, 5e-324, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SingularMatrix):
                Homography(m)

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

    def test_trusted_constructor_matches_the_checked_one(self, rng):
        perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        for m in [random_truth(rng).m * rng.uniform(-3.0, 3.0) for _ in range(20)] + [-2.0 * perm]:
            checked, trusted = Homography(m), Homography._trusted(m)
            assert trusted.m.tobytes() == checked.m.tobytes()
            assert not trusted.m.flags.writeable and trusted.m is not m

    def test_matrix_is_read_only(self):
        h = Homography.identity()
        with pytest.raises(ValueError):
            h.m[0, 0] = 2.0

    def test_unpickled_matrix_is_read_only(self, rng):
        # bench ships models and pools to worker processes by pickle
        h = Homography(random_truth(rng).m * 3.0)
        back = pickle.loads(pickle.dumps(h))
        assert back.m.tobytes() == h.m.tobytes()
        assert not back.m.flags.writeable
        with pytest.raises(ValueError):
            back.m[0, 0] = 2.0

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

    def test_output_planes_get_the_same_bits(self, rng):
        # entry columns against a row of points, as the seed blocks project
        top = [[rng.normal(0.0, 10.0 ** rng.integers(-3, 4), size=(6, 1)) for _ in range(3)] for _ in range(2)]
        u, v = rng.uniform(-700.0, 700.0, size=(2, 50))
        want = apply_homogeneous((*top, (0.0, 0.0, 1.0)), u, v)
        x, y = np.empty((2, 6, 50))
        got = apply_homogeneous((*top, (0.0, 0.0, 1.0)), u, v, out=(x, y))
        assert got[0] is x and got[1] is y
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


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
        xy = project_points(h.m, src)
        assert (xy == math.inf).all(axis=1).tolist() == [True, False]
        with pytest.raises(DegenerateProjection):
            project(h, Point2(-100.0, 7.0))
        q = project(h, Point2(1.0, 1.0))
        assert (q.u, q.v) == tuple(xy[1])


def _row_of(c: Correspondence) -> tuple:
    return (c.a.p.u, c.a.p.v, c.a.scale, c.a.angle, c.b.p.u, c.b.p.v, c.b.scale, c.b.angle)


def _raw_rows(rng, n: int) -> np.ndarray:
    """Valid rows whose angles need wrapping, including the edges of [-pi, pi)."""
    rows = np.column_stack(
        [
            rng.uniform(-1e3, 1e3, (n, 2)),
            np.exp(rng.uniform(-5.0, 5.0, n)),
            rng.uniform(-50.0, 50.0, n),
            rng.uniform(-1e3, 1e3, (n, 2)),
            np.exp(rng.uniform(-5.0, 5.0, n)),
            rng.uniform(-50.0, 50.0, n),
        ]
    )
    below_pi = math.nextafter(-math.pi, -math.inf)  # wraps to pi unless folded back
    edges = [math.pi, -math.pi, below_pi, 3 * math.pi, -1e-17, 1e-300, -0.0, 2 * math.pi, 1e15][:n]
    rows[: len(edges), 3] = edges
    rows[: len(edges), 7] = edges[::-1]
    return rows


class TestPool:
    # (column, value) pairs that each break one Correspondence invariant
    BAD_CELLS = [
        (0, math.nan),
        (1, math.inf),
        (2, 0.0),
        (2, -0.0),
        (2, -1.5),
        (2, math.nan),
        (3, -math.inf),
        (4, -math.inf),
        (5, math.nan),
        (6, 0.0),
        (6, math.inf),
        (7, math.nan),
    ]

    @pytest.mark.parametrize("col, value", BAD_CELLS)
    def test_bad_row_raises_the_correspondence_error(self, rng, col, value):
        rows = _raw_rows(rng, 6)
        rows[2, col] = value
        rows[4, (col + 3) % 8] = math.nan  # a later bad row is not the one reported
        with pytest.raises((ValueError, InvalidFeature)) as want:
            u1, v1, s1, t1, u2, v2, s2, t2 = rows[2].tolist()
            Correspondence(AffineFeature(Point2(u1, v1), s1, t1), AffineFeature(Point2(u2, v2), s2, t2))
        with pytest.raises(want.type) as got:
            Pool(rows)
        assert type(got.value) is want.type
        assert str(got.value) == str(want.value)
        assert got.value.row == 2

    def test_rows_must_be_n_by_8(self):
        with pytest.raises(ValueError):
            Pool(np.zeros((3, 7)))
        assert len(Pool(np.empty((0, 8)))) == 0

    def test_item_is_the_row_bit_for_bit(self, rng):
        raw = _raw_rows(rng, 400)
        pool = Pool(raw)
        for i in range(len(pool)):
            u1, v1, s1, t1, u2, v2, s2, t2 = raw[i].tolist()
            want = Correspondence(
                AffineFeature(Point2(u1, v1), s1, t1), AffineFeature(Point2(u2, v2), s2, t2)
            )
            assert np.array(_row_of(pool[i])).tobytes() == pool.rows[i].tobytes()
            assert np.array(_row_of(want)).tobytes() == pool.rows[i].tobytes()
        assert pool[-1] == pool[len(pool) - 1] == pool[np.int64(len(pool) - 1)]
        with pytest.raises(IndexError):
            pool[len(pool)]
        assert [_row_of(c) for c in pool] == [tuple(r) for r in pool.rows.tolist()]

    def test_angles_normalize_like_normalize_angle(self, rng):
        raw = _raw_rows(rng, 1000)
        rows = Pool(raw).rows
        for col in (3, 7):
            want = np.array([normalize_angle(a) for a in raw[:, col].tolist()])
            assert rows[:, col].tobytes() == want.tobytes()
            assert Pool(rows).rows[:, col].tobytes() == want.tobytes()  # idempotent

    def test_selections_give_pools(self, rng):
        pool = Pool(_raw_rows(rng, 20))
        mask = np.arange(20) % 3 == 0
        index = np.array([5, 1, 1, 19])
        for key, want in ((slice(2, 9, 2), pool.rows[2:9:2]), (index, pool.rows[index]), (mask, pool.rows[mask])):
            sub = pool[key]
            assert isinstance(sub, Pool)
            np.testing.assert_array_equal(sub.rows, want)
            assert not sub.rows.flags.writeable
        with pytest.raises(IndexError):
            pool[2, 3]

    def test_rows_are_read_only(self, rng):
        pool = Pool(_raw_rows(rng, 5))
        assert not pool.rows.flags.writeable
        with pytest.raises(ValueError):
            pool.rows[0, 0] = 1.0
        src, _ = pool_arrays(pool)
        with pytest.raises(ValueError):
            src[0, 0] = 1.0
        raw = np.ones((2, 8))
        Pool(raw)
        assert raw.flags.writeable  # the input is copied, not frozen

    def test_unpickled_rows_are_read_only_and_not_rechecked(self, rng, monkeypatch):
        pool = Pool(_raw_rows(rng, 7))
        data = pickle.dumps(pool[1:])

        def checked_again(self, rows):
            raise AssertionError("unpickling re-ran the row check")

        monkeypatch.setattr(Pool, "__init__", checked_again)
        back = pickle.loads(data)
        assert isinstance(back, Pool) and back.rows.tobytes() == pool.rows[1:].tobytes()
        assert not back.rows.flags.writeable
        with pytest.raises(ValueError):
            back.rows[0, 0] = 1.0

    def test_equality_compares_rows(self, rng):
        raw = _raw_rows(rng, 10)
        a, b = Pool(raw), Pool(raw.copy())
        assert (a == b) is True and (a != b) is False
        assert (a == a[:9]) is False and (a != a[:9]) is True
        moved = raw.copy()
        moved[4, 0] += 1.0
        assert (a == Pool(moved)) is False
        assert (a == list(a)) is False and (a != list(a)) is True

    def test_as_pool_converts_sequences_once(self, rng):
        pool = Pool(_raw_rows(rng, 12))
        assert as_pool(pool) is pool
        assert as_pool(list(pool)) == pool
        assert as_pool(tuple(pool)[3:5]) == pool[3:5]
        assert len(as_pool([])) == 0
        src, dst = pool_arrays(list(pool))
        np.testing.assert_array_equal(src, pool.rows[:, 0:2])
        np.testing.assert_array_equal(dst, pool.rows[:, 4:6])
