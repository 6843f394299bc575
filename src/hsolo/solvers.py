"""Homography solvers.

Three entry points: the Hartley-normalized least-squares DLT for four or more
correspondences, the exact closed form for a batch of 4-point samples (the
RANSAC minimal solver), and the closed-form similarity built from a single
correspondence's scale and rotation byproducts. The 4-point closed form and
the DLT on exactly four points share one collinear-triple test, taken from
the triangle determinants the closed form is built on.

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


def _triangles(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangle determinants of 4-point sets, each in its own exact frame.

    pts: (2, 4, ...) coordinates, then points, then any batch axes. Each set
    is moved so its first point is the origin and scaled by a power of two
    (exact) that brings its largest coordinate difference into [0.5, 1), so
    no product below can overflow or underflow at any coordinate scale.
    Returns (n (2, 3, ...) the other three points in that frame, e (...) the
    exponents with n = (p - p0) * 2**-e, t (4, ...) the signed doubled areas of
    triangles 012, 013, 023 and 123).
    """
    d = pts[:, 1:] - pts[:, :1]
    e = np.frexp(np.abs(d).max(axis=(0, 1)))[1]
    n = np.ldexp(d, -e)
    (ax, bx, cx), (ay, by, cy) = n
    t123 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    t = np.array((ax * by - ay * bx, ax * cy - ay * cx, bx * cy - by * cx, t123))
    return n, e, t


def _no_collinear_triple(n: np.ndarray, e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """False for each 4-point source set (:func:`_triangles` output) with a collinear triple.

    A triple counts as collinear when its triangle area is at most
    :data:`COLLINEARITY_AREA_RTOL` times the set's bounding-box area. Both
    are taken back to pixel units exactly, so a set whose pixel area
    overflows counts as degenerate: the scorer squares pixel residuals and
    could not use its model.
    """
    span = np.maximum(n.max(axis=1), 0.0) - np.minimum(n.min(axis=1), 0.0)
    area = np.ldexp(0.5 * np.abs(t).min(axis=0), 2 * e)
    return area > COLLINEARITY_AREA_RTOL * np.ldexp(span[0] * span[1], 2 * e)


def _centred(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An (n, 2) point set's centroid and the points moved by minus it."""
    centroid = pts.mean(axis=0)
    return centroid, pts - centroid


def _check_spread(centered: np.ndarray) -> None:
    """Reject a larger centred point set that is collinear or coincident as a whole."""
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[0] == 0.0 or sv[1] <= 1e-8 * sv[0]:
        raise DegenerateConfiguration("source points span no area")


def _hartley(centroid: np.ndarray, centered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move a :func:`_centred` point set to centroid 0 and RMS radius sqrt(2).

    Returns (normalized points, the 3x3 similarity doing it).
    """
    rms = math.sqrt(float(np.mean(np.sum(centered**2, axis=1))))
    if rms == 0.0:  # dlt_solve rejects coincident sources before this, so only targets get here
        raise DegenerateConfiguration("all target points coincide")
    s = math.sqrt(2.0) / rms
    t = np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])
    return centered * s, t


def dlt_solve(correspondences) -> Homography:
    """Least-squares homography from a pool (or sequence) of 4 or more correspondences.

    Solves the stacked 2n x 8 linear system (last entry pinned to 1) on Hartley-normalized
    points, then de-normalizes. Exact for 4 noise-free correspondences in general position.

    Raises
    ------
    DegenerateConfiguration
        Collinear or coincident source points, or coincident targets.
    IllConditioned
        The normalized design matrix is too badly conditioned to trust.
    SingularMatrix
        The fit is singular to tolerance, e.g. three targets collinear but not their sources.
    """
    src, dst = pool_arrays(correspondences)
    n = len(src)
    if n < 4:
        raise ValueError(f"need at least 4 correspondences, got {n}")
    src_mean, src_centred = _centred(src)
    if n > 4:
        _check_spread(src_centred)
    elif not _no_collinear_triple(*_triangles(src.T)):
        raise DegenerateConfiguration("collinear source triple or coincident points")
    un, t1 = _hartley(src_mean, src_centred)
    xn, t2 = _hartley(*_centred(dst))
    # point i's rows: [u v 1 0 0 0 -ux -vx] = x, then [0 0 0 u v 1 -uy -vy] = y
    a = np.zeros((n, 2, 8))
    a[:, 0, 0:2] = a[:, 1, 3:5] = un
    a[:, 0, 2] = a[:, 1, 5] = 1.0
    a[:, :, 6:8] = -un[:, None] * xn[:, :, None]
    h, _, rank, sv = np.linalg.lstsq(a.reshape(2 * n, 8), xn.reshape(2 * n), rcond=None)
    if rank < 8 or sv[-1] <= 0.0 or sv[0] / sv[-1] > MAX_DESIGN_CONDITION:
        raise IllConditioned("DLT system condition estimate exceeds bound")
    return Homography(np.linalg.inv(t2) @ np.append(h, 1.0).reshape(3, 3) @ t1)


def solve_minimal_batch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact homographies of a batch of 4-point samples, in closed form.

    src, dst: (c, 4, 2). Returns (models (c, 3, 3), valid (c,)). Invalid rows
    (a collinear source triple, four coincident targets, a model that is not
    finite) carry garbage models and must be ignored by the caller. Each
    valid model matches :func:`dlt_solve` on the same sample up to rounding
    and scale.

    With B(p) the map sending the projective basis e1, e2, e3, (1, 1, 1) onto
    four points, the model is B(dst) adj(B(src)) (Heckbert 1989). In each
    image's :func:`_triangles` frame, B's columns are lambda_i (x_i, y_i, 1),
    point 0 at the origin, and Cramer's rule without its division gives
    lambda = (t123, -t023, t013). The product is written out entry by entry,
    all elementwise over the batch, then taken back to pixel coordinates.
    """
    pts = np.array((src.T, dst.T)).transpose(1, 2, 0, 3)  # (coordinate, point, image, sample)
    n, e, t = _triangles(pts)
    valid = _no_collinear_triple(n[:, :, 0], e[0], t[:, 0]) & n[:, :, 1].any(axis=(0, 1))
    (ax, bx, _), (ay, by, _) = n[:, :, 0]
    a, b = n[:, 0, 1], n[:, 1, 1]  # target points 1 and 2
    # the model is sum_i g_i q_i r_i^T: q_i the target points (homogeneous),
    # r_i the rows p1 x p2, p2 x p0, p0 x p1 of adj(P(src)), and g_i the
    # target lambda_i times the other two source lambdas (one sign dropped)
    _, t013, t023, t123 = t
    g0, g1, g2 = t123[1] * (t023[0] * t013[0]), t023[1] * (t123[0] * t013[0]), t013[1] * (t123[0] * t023[0])
    u, v, p, q = g1 * by, g2 * ay, g1 * bx, g2 * ax
    h = np.empty((3, 3, len(src)))
    # undo the frames' scales: 2**e_dst on the target rows, 2**-e_src on the source columns
    h[:2, 0] = np.ldexp(a * u - b * v, e[1] - e[0])
    h[:2, 1] = np.ldexp(b * q - a * p, e[1] - e[0])
    h[2, :2] = np.ldexp(np.array((u - v + g0 * (ay - by), q - p + g0 * (bx - ax))), -e[0])
    h[:2, 2] = 0.0
    h[2, 2] = g0 * t[0, 0]
    # then their translations: source point 0 to the origin, the origin to target point 0
    h[:, 2] -= h[:, 0] * pts[0, 0, 0] + h[:, 1] * pts[1, 0, 0]
    h[:2] += pts[:, 0, 1, None] * h[2]
    valid &= np.isfinite(h).all(axis=(0, 1))
    return np.ascontiguousarray(h.transpose(2, 0, 1)), valid
