"""The shared DLT kernel against the two separate DLTs it replaced.

``dlt_solve`` and the RANSAC minimal solver ``solve_minimal_batch`` build their
systems with one batched Hartley-normalization and design-matrix kernel and
share one collinear-triple test. The references below are the earlier
per-solver implementations, kept verbatim apart from names: models must agree
bit for bit, and degeneracy must be flagged on exactly the same samples.
"""

import math

import numpy as np

from hsolo import DegenerateConfiguration, Homography, IllConditioned, dlt_solve
from hsolo.solvers import COLLINEARITY_AREA_RTOL, MAX_DESIGN_CONDITION, solve_minimal_batch

from conftest import pool_from_arrays


def reference_minimal_batch(src, dst):
    count = src.shape[0]
    valid = np.ones(count, dtype=bool)

    spans = src.max(axis=1) - src.min(axis=1)
    bbox = spans[:, 0] * spans[:, 1]
    min_area = np.full(count, np.inf)
    for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        ax = src[:, j, 0] - src[:, i, 0]
        ay = src[:, j, 1] - src[:, i, 1]
        bx = src[:, k, 0] - src[:, i, 0]
        by = src[:, k, 1] - src[:, i, 1]
        min_area = np.minimum(min_area, 0.5 * np.abs(ax * by - ay * bx))
    valid &= min_area > COLLINEARITY_AREA_RTOL * bbox

    c1 = src.mean(axis=1, keepdims=True)
    d1 = src - c1
    rms1 = np.sqrt(np.mean(np.sum(d1**2, axis=2), axis=1))
    c2 = dst.mean(axis=1, keepdims=True)
    d2 = dst - c2
    rms2 = np.sqrt(np.mean(np.sum(d2**2, axis=2), axis=1))
    valid &= (rms1 > 0.0) & (rms2 > 0.0)
    s1 = math.sqrt(2.0) / np.where(rms1 > 0.0, rms1, 1.0)
    s2 = math.sqrt(2.0) / np.where(rms2 > 0.0, rms2, 1.0)

    un = d1 * s1[:, None, None]
    xn = d2 * s2[:, None, None]
    u, v = un[:, :, 0], un[:, :, 1]
    x, y = xn[:, :, 0], xn[:, :, 1]

    a = np.zeros((count, 8, 8))
    a[:, 0::2, 0] = u
    a[:, 0::2, 1] = v
    a[:, 0::2, 2] = 1.0
    a[:, 0::2, 6] = -u * x
    a[:, 0::2, 7] = -v * x
    a[:, 1::2, 3] = u
    a[:, 1::2, 4] = v
    a[:, 1::2, 5] = 1.0
    a[:, 1::2, 6] = -u * y
    a[:, 1::2, 7] = -v * y
    rhs = np.zeros((count, 8))
    rhs[:, 0::2] = x
    rhs[:, 1::2] = y

    a[~valid] = np.eye(8)
    h = np.linalg.solve(a, rhs[..., None])[..., 0]  # (its per-row retry on LinAlgError omitted)
    finite = np.isfinite(h).all(axis=1)
    valid &= finite
    h[~finite] = 0.0

    h_n = np.empty((count, 3, 3))
    h_n[:, 0, :] = h[:, 0:3]
    h_n[:, 1, :] = h[:, 3:6]
    h_n[:, 2, 0] = h[:, 6]
    h_n[:, 2, 1] = h[:, 7]
    h_n[:, 2, 2] = 1.0

    t1 = np.zeros((count, 3, 3))
    t1[:, 0, 0] = s1
    t1[:, 1, 1] = s1
    t1[:, 0, 2] = -s1 * c1[:, 0, 0]
    t1[:, 1, 2] = -s1 * c1[:, 0, 1]
    t1[:, 2, 2] = 1.0
    t2_inv = np.zeros((count, 3, 3))
    t2_inv[:, 0, 0] = 1.0 / s2
    t2_inv[:, 1, 1] = 1.0 / s2
    t2_inv[:, 0, 2] = c2[:, 0, 0]
    t2_inv[:, 1, 2] = c2[:, 0, 1]
    t2_inv[:, 2, 2] = 1.0
    return t2_inv @ h_n @ t1, valid


def _reference_hartley(pts):
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    rms = math.sqrt(float(np.mean(np.sum(centered**2, axis=1))))
    if rms == 0.0:
        raise DegenerateConfiguration("all points coincident")
    s = math.sqrt(2.0) / rms
    t = np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])
    return centered * s, t


def reference_dlt_matrix(src, dst):
    """The earlier ``dlt_solve`` after its degeneracy checks, up to ``Homography``."""
    n = src.shape[0]
    src_n, t1 = _reference_hartley(src)
    dst_n, t2 = _reference_hartley(dst)
    a = np.zeros((2 * n, 8))
    b = np.empty(2 * n)
    u, v = src_n[:, 0], src_n[:, 1]
    x, y = dst_n[:, 0], dst_n[:, 1]
    a[0::2, 0] = u
    a[0::2, 1] = v
    a[0::2, 2] = 1.0
    a[0::2, 6] = -u * x
    a[0::2, 7] = -v * x
    a[1::2, 3] = u
    a[1::2, 4] = v
    a[1::2, 5] = 1.0
    a[1::2, 6] = -u * y
    a[1::2, 7] = -v * y
    b[0::2] = x
    b[1::2] = y
    h, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)
    if rank < 8 or sv[-1] <= 0.0 or sv[0] / sv[-1] > MAX_DESIGN_CONDITION:
        raise IllConditioned("DLT system condition estimate exceeds bound")
    h_n = np.array([[h[0], h[1], h[2]], [h[3], h[4], h[5]], [h[6], h[7], 1.0]])
    return np.linalg.inv(t2) @ h_n @ t1


def _perspective_images(rng, src):
    m = np.eye(3) + rng.normal(0.0, 0.1, (3, 3))
    m[2, :2] = rng.normal(0.0, 1e-4, 2)
    m[:2, 2] = rng.uniform(-50.0, 50.0, 2)
    h = np.c_[src, np.ones(len(src))] @ m.T
    return h[:, :2] / h[:, 2:]


def test_minimal_batch_matches_reference_bit_for_bit(rng):
    for trial in range(6):
        src = rng.uniform(0.0, 640.0, (2048, 4, 2))
        dst = rng.uniform(0.0, 640.0, (2048, 4, 2))
        src[::50, 2] = src[::50, 0] + 0.5 * (src[::50, 1] - src[::50, 0])  # near-collinear
        src[1::70, 3] = src[1::70, 1]  # coincident sources
        dst[2::90] = dst[2::90, :1]  # all four targets coincident
        if trial % 2:
            src = np.round(src / 40.0) * 40.0  # grid: exactly collinear triples
        got, got_valid = solve_minimal_batch(src, dst)
        want, want_valid = reference_minimal_batch(src, dst)
        np.testing.assert_array_equal(got_valid, want_valid)
        assert 0 < np.count_nonzero(~want_valid) < len(src)
        np.testing.assert_array_equal(got[want_valid], want[want_valid])


def test_dlt_solve_matches_reference_bit_for_bit(rng):
    compared = 0
    for n in [4] * 100 + rng.integers(5, 801, size=200).tolist():
        src = rng.uniform(0.0, 640.0, (n, 2))
        dst = _perspective_images(rng, src) + rng.normal(0.0, 0.5, (n, 2)) * (n % 2)
        pool = pool_from_arrays(src, dst)
        try:
            got = dlt_solve(pool).m
        except DegenerateConfiguration:
            continue
        want = Homography(reference_dlt_matrix(src, dst)).m
        np.testing.assert_array_equal(got, want)
        compared += 1
    assert compared >= 290
