"""Homography solvers.

Three entry points: the Hartley-normalized least-squares DLT for four or more
correspondences, the same normalized DLT for a batch of 4-point samples (the
RANSAC minimal solver), and the closed-form similarity built from a single
correspondence's scale and rotation byproducts. Both DLTs build their systems
with one batched normalization and design-matrix kernel and share one
collinear-triple test.

The single-match solver treats each feature's byproducts as a canonical-patch
to image map (scale, then rotate, then translate onto the feature point). The
similarity between the two images is then patch-map(b) composed with the
inverse patch-map(a); by construction it sends the first feature point exactly
onto the second and its linear part is (s_b/s_a) times the rotation by
(angle_b - angle_a).
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DegenerateConfiguration, IllConditioned
from .geometry import Correspondence, Homography, pool_arrays

# A minimal-sample source triple whose triangle area is below this fraction of
# the sample's bounding-box area counts as collinear.
COLLINEARITY_AREA_RTOL = 1e-6

# Reject DLT systems whose design-matrix condition number (after Hartley
# normalization) squares past double precision; equivalent to a normal-equation
# condition estimate above ~1e16.
MAX_DESIGN_CONDITION = 1e8


def similarity_sketch(u1, v1, u2, v2, r, cos_d, sin_d):
    """Nested 3x3 entries of the similarity r R(delta) sending (u1, v1) exactly onto (u2, v2).

    r = s2/s1 and delta = theta2 - theta1 are one match's byproducts.
    Elementwise, so floats and columns of matches get the same bits.
    """
    l00, l01 = r * cos_d, -r * sin_d
    l10, l11 = r * sin_d, r * cos_d
    tx = u2 - (l00 * u1 + l01 * v1)
    ty = v2 - (l10 * u1 + l11 * v1)
    return (l00, l01, tx), (l10, l11, ty), (0.0, 0.0, 1.0)


def single_match_homography(c: Correspondence) -> Homography:
    """Similarity estimate of the homography from one correspondence.

    Maps image-1 coordinates to image-2 coordinates: the
    :func:`similarity_sketch` of c, so c.a.p lands exactly on c.b.p.
    """
    a, b, delta = c.a.p, c.b.p, c.b.angle - c.a.angle
    sketch = similarity_sketch(a.u, a.v, b.u, b.v, c.b.scale / c.a.scale, math.cos(delta), math.sin(delta))
    return Homography(np.array(sketch))


# the four source triples of a 4-point sample, as index columns i, j, k
_TRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]).T


def _no_collinear_triple(src: np.ndarray) -> np.ndarray:
    """False for each (c, 4, 2) source sample with a collinear triple.

    A triple counts as collinear when its triangle area is at most
    :data:`COLLINEARITY_AREA_RTOL` times the sample's bounding-box area.
    """
    i, j, k = _TRIPLES
    spans = src.max(axis=1) - src.min(axis=1)
    ab, ac = src[:, j] - src[:, i], src[:, k] - src[:, i]
    area = 0.5 * np.abs(ab[..., 0] * ac[..., 1] - ab[..., 1] * ac[..., 0])
    return area.min(axis=1) > COLLINEARITY_AREA_RTOL * (spans[:, 0] * spans[:, 1])


def _check_spread(src: np.ndarray) -> None:
    """Reject a larger point set that is collinear or coincident as a whole."""
    centered = src - src.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[0] == 0.0 or sv[1] <= 1e-8 * sv[0]:
        raise DegenerateConfiguration("source points span no area")


def _hartley(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Move each (c, k, 2) point set to centroid 0 and RMS radius sqrt(2).

    Returns (normalized points, scales (c,), centroids (c, 2), ok (c,)); ok
    is False for a set of coincident points, whose scale is a placeholder.
    """
    # sums divided by the count: the bits of np.mean, without its call overhead
    centroid = pts.sum(axis=1, keepdims=True) / pts.shape[1]
    centered = pts - centroid
    rms = np.sqrt(np.sum(centered**2, axis=2).sum(axis=1) / pts.shape[1])
    ok = rms > 0.0
    s = math.sqrt(2.0) / np.where(ok, rms, 1.0)
    return centered * s[:, None, None], s, centroid[:, 0], ok


def _similarity(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(c, 3, 3) matrices scaling by s (c,), then translating by t (c, 2)."""
    m = np.zeros((s.shape[0], 3, 3))
    m[:, 0, 0] = m[:, 1, 1] = s
    m[:, :2, 2] = t
    m[:, 2, 2] = 1.0
    return m


def _dlt_system(src: np.ndarray, dst: np.ndarray):
    """Hartley-normalized DLT systems of (c, k, 2) correspondence sets.

    Rows 2i and 2i + 1 are point i's x and y equations in the first 8
    homography entries, the last pinned to 1. Returns (a (c, 2k, 8),
    rhs (c, 2k), t1, (s2, c2), ok): the source normalizations (c, 3, 3), the
    scales and centroids of the target ones, and ok False where either side
    is coincident or, for minimal sets (k = 4), a source triple is collinear.
    """
    un, s1, c1, ok1 = _hartley(src)
    xn, s2, c2, ok2 = _hartley(dst)
    count, k = un.shape[:2]
    # per point (u, v) -> (x, y): [u v 1 0 0 0 -ux -vx] = x, [0 0 0 u v 1 -uy -vy] = y
    a = np.zeros((count, k, 2, 8))
    a[:, :, 0, 0:2] = un
    a[:, :, 0, 2] = 1.0
    a[:, :, 0, 6:8] = -un * xn[..., 0:1]
    a[:, :, 1, 3:5] = un
    a[:, :, 1, 5] = 1.0
    a[:, :, 1, 6:8] = -un * xn[..., 1:2]
    ok = ok1 & ok2
    if k == 4:
        ok &= _no_collinear_triple(src)
    t1 = _similarity(s1, -s1[:, None] * c1)
    return a.reshape(count, 2 * k, 8), xn.reshape(count, 2 * k), t1, (s2, c2), ok


def _matrices(h: np.ndarray) -> np.ndarray:
    """(c, 8) entry rows as (c, 3, 3) matrices with the last entry 1."""
    return np.concatenate([h, np.ones((h.shape[0], 1))], axis=1).reshape(-1, 3, 3)


def dlt_solve(correspondences) -> Homography:
    """Least-squares homography from a pool (or sequence) of 4 or more correspondences.

    Solves the stacked 2n x 8 linear system (last entry pinned to 1) on Hartley-normalized
    points, then de-normalizes. Exact for 4 noise-free correspondences in general position.

    Raises
    ------
    DegenerateConfiguration
        Collinear or coincident source points.
    IllConditioned
        The normalized design matrix is too badly conditioned to trust.
    SingularMatrix
        The fit is singular to tolerance, e.g. three targets collinear but not their sources.
    """
    src, dst = pool_arrays(correspondences)
    if len(src) < 4:
        raise ValueError(f"need at least 4 correspondences, got {len(src)}")
    if len(src) > 4:
        _check_spread(src)
    a, rhs, t1, (s2, c2), ok = _dlt_system(src[None], dst[None])
    if not ok[0]:
        raise DegenerateConfiguration("collinear source triple or coincident points")

    h, _, rank, sv = np.linalg.lstsq(a[0], rhs[0], rcond=None)
    if rank < 8 or sv[-1] <= 0.0 or sv[0] / sv[-1] > MAX_DESIGN_CONDITION:
        raise IllConditioned("DLT system condition estimate exceeds bound")
    t2 = _similarity(s2, -s2[:, None] * c2)[0]
    return Homography(np.linalg.inv(t2) @ _matrices(h[None])[0] @ t1[0])


def solve_minimal_batch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized DLT on a batch of 4-point samples.

    src, dst: (c, 4, 2). Returns (models (c, 3, 3), valid (c,)). Invalid rows
    (collinear sources, coincident points, singular systems) carry garbage
    models and must be ignored by the caller. Each valid model matches
    :func:`dlt_solve` on the same sample up to rounding: this path solves the
    square system directly and inverts the target normalization analytically.
    """
    a, rhs, t1, (s2, c2), valid = _dlt_system(src, dst)

    a[~valid] = np.eye(8)
    try:
        h = np.linalg.solve(a, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # rare: an exactly singular system slipped past the area check
        h = np.zeros((len(a), 8))
        for idx in range(len(a)):
            try:
                h[idx] = np.linalg.solve(a[idx], rhs[idx])
            except np.linalg.LinAlgError:
                valid[idx] = False
    finite = np.isfinite(h).all(axis=1)
    valid &= finite
    h[~finite] = 0.0

    # the target normalization, inverted analytically
    return _similarity(1.0 / s2, c2) @ _matrices(h) @ t1, valid
