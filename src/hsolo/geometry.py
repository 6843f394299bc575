"""Core projective-geometry types, the correspondence pool, and exact point-level operations.

Pixel coordinate convention: origin at the top-left image corner, x to the
right, y down. Every operation here is covariant with that choice, so nothing
else in the package depends on it, but test data and the file format follow it.

All types are immutable after construction and all operations are pure
functions, so values can be shared freely between concurrent workers.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateProjection, InvalidFeature, SingularMatrix

# Relative threshold (against the Frobenius norm) below which a homogeneous
# w-component or a determinant is treated as zero. Double precision leaves
# ample headroom for pixel-scale data.
SINGULARITY_RTOL = 1e-12
_RTOL_SQUARED = SINGULARITY_RTOL * SINGULARITY_RTOL

_TWO_PI = 2.0 * math.pi


def normalize_angle(angle):
    """Wrap angles in radians into [-pi, pi); elementwise, so floats and arrays get the same bits."""
    a = (angle + math.pi) % _TWO_PI - math.pi
    # % can return 2*pi - ulp for tiny negative inputs; fold the edge back
    return a - _TWO_PI * (a >= math.pi)


@dataclass(frozen=True)
class Point2:
    """An image point in pixels."""

    u: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError(f"point coordinates must be finite, got ({self.u}, {self.v})")


@dataclass(frozen=True)
class AffineFeature:
    """A detected image point together with its scale and rotation byproducts.

    ``scale`` must be strictly positive; ``angle`` is normalized to [-pi, pi)
    on construction so every feature has a unique representation.
    """

    p: Point2
    scale: float
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "scale", float(self.scale))
        if not math.isfinite(self.scale) or self.scale <= 0.0:
            raise InvalidFeature(f"feature scale must be > 0, got {self.scale}")
        if not math.isfinite(float(self.angle)):
            raise InvalidFeature(f"feature angle must be finite, got {self.angle}")
        object.__setattr__(self, "angle", normalize_angle(float(self.angle)))


@dataclass(frozen=True)
class Correspondence:
    """A matched pair of affine features, one per image."""

    a: AffineFeature
    b: AffineFeature


def valid_homography(m):
    """The one homography validity test: ``|det| > SINGULARITY_RTOL * fro**3``.

    ``fro`` is the Frobenius norm; both sides are squared, so a NaN or
    infinite entry fails too. Elementwise, as :func:`apply_homogeneous` is:
    a 3x3 nested list of floats gives a bool, a ``(3, 3, c)`` array a
    ``(c,)`` mask, with the same bits. Scale-invariant up to rounding while
    the squares neither overflow nor underflow.
    """
    (a, b, c), (d, e, f), (g, h, i) = m
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    fro2 = a * a + b * b + c * c + d * d + e * e + f * f + g * g + h * h + i * i
    return det * det > _RTOL_SQUARED * (fro2 * fro2 * fro2)


def _canonicalize(m: np.ndarray) -> np.ndarray:
    """Scale a 3x3 matrix into its canonical projective representation.

    When the (3,3) entry is significant the matrix is scaled so that entry is
    exactly 1. Otherwise it is scaled to unit Frobenius norm with the first
    significant entry positive. Idempotent down to the bit level: an already
    canonical matrix passes through unchanged.
    """
    fro = float(np.linalg.norm(m))
    if fro == 0.0:
        raise ValueError("homography entries are all zero")
    if abs(m[2, 2]) > SINGULARITY_RTOL * fro:
        s = m[2, 2]
        if s != 1.0:
            m = m / s
    else:
        if abs(fro - 1.0) > SINGULARITY_RTOL:
            m = m / fro
        for entry in m.ravel():
            if abs(entry) > SINGULARITY_RTOL:
                if entry < 0.0:
                    m = -m
                break
    return m


@dataclass(frozen=True, eq=False)
class Homography:
    """A 3x3 invertible projective transform.

    Stored in canonical form: scaled so the last entry is 1 whenever that
    entry is significant, otherwise unit Frobenius norm with the first
    significant entry positive. Construction rejects matrices that
    :func:`valid_homography` rejects, testing the canonical form.
    """

    m: np.ndarray

    def __post_init__(self):
        arr = np.array(self.m, dtype=float)
        if arr.shape == (9,):
            arr = arr.reshape(3, 3)
        if arr.shape != (3, 3):
            raise ValueError(f"homography must be 3x3 or flat 9, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("homography entries must be finite")
        arr = _canonicalize(arr)
        if not valid_homography(arr.tolist()):
            # LAPACK's det can warn on subnormal entries; the message needs no warning
            with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
                det = float(np.linalg.det(arr))
            raise SingularMatrix(f"homography is singular to tolerance (det={det:.3e})")
        self._freeze(arr)

    @classmethod
    def _trusted(cls, m: np.ndarray) -> "Homography":
        """A copy of a 3x3 matrix that :func:`valid_homography` passed, canonical but not re-tested."""
        h = cls.__new__(cls)
        h._freeze(_canonicalize(np.array(m, dtype=float)))
        return h

    def _freeze(self, arr: np.ndarray) -> None:
        arr.flags.writeable = False
        object.__setattr__(self, "m", arr)

    def __setstate__(self, state) -> None:  # unpickled arrays come back writeable
        self._freeze(state["m"])

    @classmethod
    def identity(cls) -> "Homography":
        return cls(np.eye(3))

    @classmethod
    def translation(cls, tx: float, ty: float) -> "Homography":
        m = np.eye(3)
        m[0, 2] = tx
        m[1, 2] = ty
        return cls(m)

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(f"{x:.6g}" for x in row) for row in self.m)
        return f"Homography([{rows}])"


def apply_homogeneous(m, u, v, out=None):
    """Homogeneous image ``(x, y, w)`` of points ``(u, v)`` under nested 3x3 entries (``m.tolist()``).

    The package's one projection arithmetic; elementwise, so floats, arrays
    and entry columns against a row of points get the same bits. ``out``, a
    pair of arrays of the broadcast shape, receives ``x`` and ``y`` (the
    same bits, with one scratch array for both instead of a few temporaries
    per plane); ``w`` is always a new value.
    """
    (a, b, c), (d, e, f), (g, h, i) = m
    if out is None:
        x = a * u + b * v + c
        y = d * u + e * v + f
    else:
        x, y = out
        t = np.multiply(b, v, out=np.empty_like(x))
        np.add(np.multiply(a, u, out=x), t, out=x)
        x += c
        np.add(np.multiply(d, u, out=y), np.multiply(e, v, out=t), out=y)
        y += f
    w = g * u + h * v + i
    return x, y, w


def project(h: Homography, p: Point2) -> Point2:
    """Apply a homography to a point.

    Raises :class:`DegenerateProjection` when the homogeneous w-component is
    below tolerance, i.e. the point maps (numerically) to the line at infinity.
    """
    x, y, w = apply_homogeneous(h.m.tolist(), p.u, p.v)
    if abs(w) <= SINGULARITY_RTOL * np.linalg.norm(h.m):
        raise DegenerateProjection(f"point ({p.u}, {p.v}) maps to the line at infinity")
    return Point2(x / w, y / w)


def reprojection_error(h: Homography, c: Correspondence) -> float:
    """Euclidean distance in pixels between project(h, c.a.p) and c.b.p.

    Propagates :class:`DegenerateProjection`; scoring loops that must not
    abort should use :func:`transfer_errors`, which maps degenerate
    projections to +infinity instead and otherwise agrees bit for bit.
    """
    q = project(h, c.a.p)
    return float(np.hypot(q.u - c.b.p.u, q.v - c.b.p.v))


def _correspondence(row) -> Correspondence:
    u1, v1, s1, t1, u2, v2, s2, t2 = row
    return Correspondence(AffineFeature(Point2(u1, v1), s1, t1), AffineFeature(Point2(u2, v2), s2, t2))


class Pool(Sequence):
    """An immutable correspondence pool: one row per match, in the file's columns.

    ``rows`` is a read-only (n, 8) float array with columns u1, v1, s1,
    theta1, u2, v2, s2, theta2. Construction checks all rows at once against
    the invariants of :class:`Correspondence` (raising its error for the
    first bad row, with the row index as ``exc.row``) and wraps the angles
    with :func:`normalize_angle`, as it does. ``pool[i]`` is row i as a
    :class:`Correspondence`; slices, index arrays and boolean masks give a
    :class:`Pool`. Pools are equal when their rows are.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = np.array(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 8:
            raise ValueError(f"pool rows must have shape (n, 8), got {rows.shape}")
        bad = ~(np.isfinite(rows).all(axis=1) & (rows[:, 2::4] > 0.0).all(axis=1))
        if bad.any():
            i = int(np.argmax(bad))
            try:
                _correspondence(rows[i].tolist())
            except (InvalidFeature, ValueError) as exc:
                exc.row = i
                raise
        rows[:, 3::4] = normalize_angle(rows[:, 3::4])
        rows.flags.writeable = False
        self.rows = rows

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return _correspondence(self.rows[key].tolist())
        rows = self.rows[key]
        if rows.ndim != 2:
            raise IndexError(f"pool index {key!r} does not select rows")
        return Pool._trusted(rows)

    @classmethod
    def _trusted(cls, rows: np.ndarray) -> "Pool":
        """A pool of rows taken from a valid pool, frozen without a second check."""
        rows.flags.writeable = False
        pool = cls.__new__(cls)
        pool.rows = rows
        return pool

    def __reduce__(self):  # unpickled arrays come back writeable
        return Pool._trusted, (self.rows,)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pool):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)

    def __repr__(self) -> str:
        return f"Pool(n={len(self)})"


def as_pool(pool) -> Pool:
    """``pool`` as a :class:`Pool`: a pool as is, a sequence of correspondences converted once."""
    if isinstance(pool, Pool):
        return pool
    rows = [(c.a.p.u, c.a.p.v, c.a.scale, c.a.angle, c.b.p.u, c.b.p.v, c.b.scale, c.b.angle) for c in pool]
    return Pool(np.array(rows, dtype=float).reshape(-1, 8))


# ---------------------------------------------------------------------------
# Array helpers shared by the estimation loops. These operate on plain float
# arrays so hot paths avoid per-point object traffic.


def pool_arrays(pool) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2) source and target point columns of a pool (read-only views)."""
    rows = as_pool(pool).rows
    return rows[:, 0:2], rows[:, 4:6]


def project_points(m: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Apply a 3x3 matrix to (n, 2) points: the array projection kernel.

    Returns the (n, 2) images. Where the homogeneous w-component is at most
    :data:`SINGULARITY_RTOL` times the matrix's Frobenius norm, i.e. the
    point maps (numerically) to the line at infinity, the row is +infinity.
    """
    m = np.asarray(m, dtype=float)
    x, y, w = apply_homogeneous(m.tolist(), pts[:, 0], pts[:, 1])
    bad = np.abs(w) <= SINGULARITY_RTOL * float(np.linalg.norm(m))
    w[bad] = 1.0
    xy = np.empty((w.shape[0], 2))
    np.divide(x, w, out=xy[:, 0])
    np.divide(y, w, out=xy[:, 1])
    xy[bad] = np.inf
    return xy


def transfer_errors(m: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per-pair reprojection error of ``src -> dst`` under a 3x3 matrix.

    Degenerate projections (w-component below tolerance) land at infinity, so
    a bad candidate model loses support instead of crashing the caller.
    """
    xy = project_points(m, src)
    return np.hypot(xy[:, 0] - dst[:, 0], xy[:, 1] - dst[:, 1])
