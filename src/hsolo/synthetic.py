"""Ground-truth scene generation for benchmarking.

Builds candidate correspondence pools with a known homography and a prescribed
inlier rate. Inlier byproducts (feature scale and orientation) are derived
from the local linearization of the truth map, so a perfect detector is the
zero-noise limit; noise channels then model detector imprecision. Outliers are
uniformly random in both images with uninformative byproducts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateProjection, InfeasibleSpec
from .geometry import (
    SINGULARITY_RTOL,
    Homography,
    Point2,
    Pool,
    apply_homogeneous,
    normalize_angle,
    project_points,
)

_CENTRAL_FRACTION = 0.8
# log bounds of the log-uniform scale draw: image-1 scales, and image-2 scales of outliers
_LOG_SCALE_RANGE = (math.log(0.5), math.log(2.0))


def _check_bounds(image_bounds: tuple[float, float]) -> tuple[float, float]:
    width, height = image_bounds
    if not (0 < width < math.inf and 0 < height < math.inf):  # NaN fails too
        raise ValueError(f"image bounds must be positive, got {image_bounds}")
    return width, height


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one synthetic scene.

    ``image_bounds`` = (width, height) applies to both images. Pixel noise
    perturbs target points only; scale noise is multiplicative log-normal and
    angle noise additive Gaussian, both applied to the target feature's
    byproducts.
    """

    truth: Homography
    image_bounds: tuple[float, float]
    n_total: int
    inlier_rate: float
    pixel_noise_sigma: float = 0.0
    scale_noise_sigma: float = 0.0
    angle_noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_bounds(self.image_bounds)
        if self.n_total < 8:
            raise ValueError(f"n_total must be >= 8, got {self.n_total}")
        if not 0.0 < self.inlier_rate <= 1.0:  # NaN fails too
            raise ValueError(f"inlier_rate must be in (0, 1], got {self.inlier_rate}")
        for name in ("pixel_noise_sigma", "scale_noise_sigma", "angle_noise_sigma"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class LocalByproducts:
    """First-order behavior of a homography at a point: sqrt|det J| and the polar angle of J."""

    scale_ratio: float
    angle_delta: float


def jacobian_byproducts(truth: Homography, p: Point2) -> LocalByproducts:
    """Scale ratio and rotation angle an ideal detector would report at p.

    Computes the analytic 2x2 Jacobian J of the projective map at p; the angle
    is that of its orthogonal polar factor and the scale is sqrt|det J|. When
    det J < 0 that factor is the reflection [[c, s], [s, -c]] whose direction
    (c, s) is that of (j11 - j22, j21 + j12).

    Raises :class:`DegenerateProjection` when p lies too close to the map's
    line at infinity.
    """
    m = truth.m
    big_x, big_y, big_w = apply_homogeneous(m.tolist(), p.u, p.v)
    fro = math.sqrt(float(np.sum(m**2)))
    if not abs(big_w) > SINGULARITY_RTOL * fro:
        raise DegenerateProjection(f"point {p} projects to infinity")
    xp = big_x / big_w
    yp = big_y / big_w
    j11 = (m[0, 0] - xp * m[2, 0]) / big_w
    j12 = (m[0, 1] - xp * m[2, 1]) / big_w
    j21 = (m[1, 0] - yp * m[2, 0]) / big_w
    j22 = (m[1, 1] - yp * m[2, 1]) / big_w
    det = j11 * j22 - j12 * j21
    if det > 0.0:
        angle = math.atan2(j21 - j12, j11 + j22)
        return LocalByproducts(math.sqrt(det), normalize_angle(angle))
    angle = math.atan2(j21 + j12, j11 - j22)
    return LocalByproducts(math.sqrt(-det), normalize_angle(angle))


def _sample_inlier_sources(
    spec: SceneSpec, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Source points from the central region whose projections stay in bounds.

    Returns the (count, 2) sources and their exact images under the truth.
    """
    width, height = spec.image_bounds
    margin = (1.0 - _CENTRAL_FRACTION) / 2.0
    sources: list[np.ndarray] = []
    images: list[np.ndarray] = []
    n_acc = 0
    attempts = 0
    rejects = 0
    min_probe = max(2 * count, 64)
    while n_acc < count:
        draw = max(count - n_acc, 32)
        xs = rng.uniform(margin * width, (1.0 - margin) * width, size=draw)
        ys = rng.uniform(margin * height, (1.0 - margin) * height, size=draw)
        pts = np.column_stack([xs, ys])
        img, ok = project_points(spec.truth.m, pts)
        ok &= ((img >= 0.0) & (img <= (width, height))).all(axis=1)
        attempts += draw
        rejects += int(draw - ok.sum())
        if ok.any():
            sources.append(pts[ok])
            images.append(img[ok])
            n_acc += sources[-1].shape[0]
        if n_acc < count and attempts >= min_probe and rejects > 0.5 * attempts:
            raise InfeasibleSpec(
                f"truth maps the central source region out of bounds for "
                f"{rejects}/{attempts} attempts"
            )
    return np.concatenate(sources, axis=0)[:count], np.concatenate(images, axis=0)[:count]


def generate_scene(spec: SceneSpec) -> tuple[Pool, np.ndarray]:
    """Generate a shuffled correspondence pool and its true-inlier mask.

    Exactly round(n_total * inlier_rate) inliers: sources uniform in the
    central 80% of image 1 (rejected if the truth projects them out of image
    2), targets are the exact projections plus optional Gaussian pixel noise,
    and byproducts follow :func:`jacobian_byproducts` with optional noise.
    Outliers are uniform in both images with log-uniform scales and uniform
    angles. Output order is shuffled; the boolean mask marks true inliers.

    Raises :class:`InfeasibleSpec` when more than half of the source draws
    project out of bounds.
    """
    rng = np.random.default_rng(spec.seed)
    width, height = spec.image_bounds
    n_in = round(spec.n_total * spec.inlier_rate)
    n_out = spec.n_total - n_in
    log_lo, log_hi = _LOG_SCALE_RANGE

    # one row per correspondence, in the file's columns
    rows = np.empty((spec.n_total, 8))
    if n_in > 0:
        sources, images = _sample_inlier_sources(spec, rng, n_in)
        for i, ((sx, sy), (bx, by)) in enumerate(zip(sources.tolist(), images.tolist())):
            if spec.pixel_noise_sigma > 0.0:
                bx += rng.normal(0.0, spec.pixel_noise_sigma)
                by += rng.normal(0.0, spec.pixel_noise_sigma)
            local = jacobian_byproducts(spec.truth, Point2(sx, sy))
            s1 = math.exp(rng.uniform(log_lo, log_hi))
            theta1 = rng.uniform(-math.pi, math.pi)
            s2 = s1 * local.scale_ratio
            if spec.scale_noise_sigma > 0.0:
                s2 *= math.exp(rng.normal(0.0, spec.scale_noise_sigma))
            theta2 = theta1 + local.angle_delta
            if spec.angle_noise_sigma > 0.0:
                theta2 += rng.normal(0.0, spec.angle_noise_sigma)
            rows[i] = (sx, sy, s1, theta1, bx, by, s2, theta2)

    # Per outlier: u1, v1, u2, v2, log s1, log s2, theta1, theta2. A scalar
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(), so one row-major
    # block of rng.random draws gives the same values and leaves the
    # generator in the same state as drawing them one at a time.
    lo = np.array([0.0, 0.0, 0.0, 0.0, log_lo, log_lo, -math.pi, -math.pi])
    hi = np.array([width, height, width, height, log_hi, log_hi, math.pi, math.pi])
    draws = lo + (hi - lo) * rng.random((n_out, 8))
    rows[n_in:] = draws[:, [0, 1, 4, 6, 2, 3, 5, 7]]
    # math.exp, whose bits numpy's vector exp need not match
    rows[n_in:, 2] = [math.exp(x) for x in draws[:, 4].tolist()]
    rows[n_in:, 6] = [math.exp(x) for x in draws[:, 5].tolist()]

    mask = np.zeros(spec.n_total, dtype=bool)
    mask[:n_in] = True
    perm = rng.permutation(spec.n_total)
    return Pool(rows)[perm], mask[perm]


def random_scene_truth(rng: np.random.Generator, image_bounds: tuple[float, float]) -> Homography:
    """A moderate random projective map keeping the central region in frame.

    Convenience for benchmark sweeps: mild scale/rotation/shear around the
    image center, small translation jitter, and weak perspective terms, chosen
    so generate_scene's rejection sampling stays well below its feasibility
    limit. Raises ``ValueError`` for bounds that are not positive.
    """
    width, height = _check_bounds(image_bounds)
    scale = rng.uniform(0.85, 1.15)
    angle = rng.uniform(-math.pi / 12.0, math.pi / 12.0)
    c, s = math.cos(angle), math.sin(angle)
    lin = scale * np.array([[c, -s], [s, c]]) + rng.uniform(-0.03, 0.03, size=(2, 2))
    persp = rng.uniform(-0.1, 0.1, size=2) / max(width, height)
    center = np.array([width / 2.0, height / 2.0])
    target = center + rng.uniform(-0.03, 0.03, size=2) * np.array([width, height])
    # pick the translation so the image center lands on the jittered target
    denom = persp @ center + 1.0
    t = target * denom - lin @ center
    m = np.array(
        [
            [lin[0, 0], lin[0, 1], t[0]],
            [lin[1, 0], lin[1, 1], t[1]],
            [persp[0], persp[1], 1.0],
        ]
    )
    return Homography(m)
