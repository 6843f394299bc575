"""Shared helpers for building exact correspondence pools with known truth."""

import math

import numpy as np
import pytest

from hsolo import AffineFeature, Correspondence, Homography, Point2, project
from hsolo.estimator import FilteredSet, _filtered_from_errors
from hsolo.geometry import pool_arrays, transfer_errors
from hsolo.synthetic import jacobian_byproducts


def make_point_correspondence(truth: Homography, p: Point2) -> Correspondence:
    """Exact correspondence of ``truth`` with placeholder byproducts."""
    return Correspondence(
        AffineFeature(p, 1.0, 0.0),
        AffineFeature(project(truth, p), 1.0, 0.0),
    )


def make_byproduct_correspondence(
    truth: Homography, p: Point2, rng: np.random.Generator
) -> Correspondence:
    """Exact correspondence whose byproducts match the local behavior of truth."""
    local = jacobian_byproducts(truth, p)
    s1 = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    theta1 = rng.uniform(-math.pi, math.pi)
    return Correspondence(
        AffineFeature(p, s1, theta1),
        AffineFeature(project(truth, p), s1 * local.scale_ratio, theta1 + local.angle_delta),
    )


def filter_by_model(h_prime: Homography, pool, n_f: int) -> FilteredSet:
    """Select the min(n_f, len(pool)) correspondences with lowest error under h_prime.

    The estimator's filter kernel on one model's transfer errors. Selection is
    exact: ties in error are broken by pool index, and correspondences whose
    source projects to infinity (+inf error) or whose error is NaN rank last,
    NaN counting as +inf.
    """
    if not pool:
        raise ValueError("pool must be non-empty")
    if n_f < 1:
        raise ValueError(f"n_f must be >= 1, got {n_f}")
    src, dst = pool_arrays(pool)
    return _filtered_from_errors(transfer_errors(h_prime.m, src, dst), n_f)


def exact_pool(truth: Homography, points) -> list:
    return [make_point_correspondence(truth, p) for p in points]


def pool_from_arrays(src: np.ndarray, dst: np.ndarray) -> list:
    """Point correspondences ``src[i] -> dst[i]`` with placeholder byproducts."""
    return [
        Correspondence(AffineFeature(Point2(*a), 1.0, 0.0), AffineFeature(Point2(*b), 1.0, 0.0))
        for a, b in zip(src.tolist(), dst.tolist())
    ]


def random_points(rng: np.random.Generator, n: int, width=640.0, height=480.0):
    return [
        Point2(rng.uniform(0.05 * width, 0.95 * width), rng.uniform(0.05 * height, 0.95 * height))
        for _ in range(n)
    ]


def random_truth(rng: np.random.Generator) -> Homography:
    """A well-conditioned random projective map at desk image scale."""
    scale = rng.uniform(0.8, 1.25)
    angle = rng.uniform(-0.4, 0.4)
    c, s = math.cos(angle), math.sin(angle)
    m = np.array(
        [
            [scale * c, -scale * s, rng.uniform(-40.0, 40.0)],
            [scale * s, scale * c, rng.uniform(-40.0, 40.0)],
            [rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4), 1.0],
        ]
    )
    m[0, 1] += rng.uniform(-0.05, 0.05)
    m[1, 0] += rng.uniform(-0.05, 0.05)
    return Homography(m)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
