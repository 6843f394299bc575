"""Shared helpers for building exact correspondence pools with known truth."""

import heapq
import math

import numpy as np
import pytest

from hsolo import AffineFeature, Correspondence, Homography, Point2, SingularMatrix, project
from hsolo.estimator import _exact_gate, _gate_threshold, _GatePool, _sketches
from hsolo.geometry import Pool, pool_arrays, transfer_errors
from hsolo.solvers import single_match_homography
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


def _reference_filter(errors: np.ndarray, n_f: int):
    """Heap oracle: indices, errors and median of the min(n_f, n) smallest errors, ties by index."""
    take = min(n_f, errors.shape[0])
    pairs = heapq.nsmallest(take, zip(errors.tolist(), range(errors.shape[0])))
    idx = np.fromiter((i for _, i in pairs), dtype=np.intp, count=take)
    errs = np.fromiter((e for e, _ in pairs), dtype=np.float64, count=take)
    return idx, errs, float(np.median(errs))


def filter_by_model(h_prime: Homography, pool, n_f: int):
    """Indices, errors and median of the min(n_f, len(pool)) correspondences with lowest error under h_prime.

    The heap oracle on one model's transfer errors. Selection is exact: ties
    in error are broken by pool index, and correspondences whose source
    projects to infinity (+inf error) or whose error is NaN rank last, NaN
    counting as +inf.
    """
    if not pool:
        raise ValueError("pool must be non-empty")
    if n_f < 1:
        raise ValueError(f"n_f must be >= 1, got {n_f}")
    src, dst = pool_arrays(pool)
    errors = transfer_errors(h_prime.m, src, dst)
    errors[np.isnan(errors)] = np.inf
    return _reference_filter(errors, n_f)


def scalar_seed_errors(seed: Correspondence, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """A seed's pool errors on the one-seed path, NaN counting as +inf.

    ``transfer_errors`` under ``single_match_homography(seed)``; all +inf
    when the seed gives no usable sketch, as the estimator treats it.
    """
    try:
        m = single_match_homography(seed).m
    except (SingularMatrix, ValueError):
        return np.full(src.shape[0], np.inf)
    errors = transfer_errors(m, src, dst)
    errors[np.isnan(errors)] = np.inf
    return errors


IDENTITY_SEED = Pool([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]])


def identity_targets(offsets):
    """Sources at the origin and targets at the given (a, b) offsets.

    Under the identity sketch of ``IDENTITY_SEED`` the error of offset
    (a, b) is ``np.hypot(a, b)``.
    """
    return np.zeros((len(offsets), 2)), np.array(offsets, dtype=float).reshape(-1, 2)


def gate_block(seeds: Pool, src: np.ndarray, dst: np.ndarray, n_f: int, epsilon_r: float):
    """The walk's gate on one block of seeds: the product's candidates, then the exact gate on them.

    Returns ``(rows, medians, passing)``: the candidate rows, the gate
    medians of the whole block (+inf outside ``rows``) and the exact gate's
    ``(i, cut)`` for each passing seed, by position in the block.
    """
    gate = _GatePool(src, dst)
    take = min(n_f, len(src))
    top, ok = _sketches(seeds)
    rows = gate.candidates(top, ok, take, _gate_threshold(epsilon_r))
    medians = np.full(len(seeds), np.inf)
    medians[rows], passing = _exact_gate(top[..., rows], ok[rows], rows, gate, take, epsilon_r)
    return rows, medians, passing


def kernel_filter(errors, n_f: int):
    """The estimator's filtered indices and gate median of one row of errors.

    Drives the row through the walk's gate as the identity sketch's errors
    against targets at offsets (0, e), with a gate that every row passes.
    """
    src, dst = identity_targets([(0.0, e) for e in np.asarray(errors, dtype=float).tolist()])
    _, medians, passing = gate_block(IDENTITY_SEED, src, dst, n_f, math.inf)
    filtered = {i: cut() for i, cut in passing}
    return filtered[0], float(medians[0])


def exact_pool(truth: Homography, points) -> list:
    return [make_point_correspondence(truth, p) for p in points]


def pool_from_arrays(src: np.ndarray, dst: np.ndarray) -> list:
    """Point correspondences ``src[i] -> dst[i]`` with placeholder byproducts."""
    return [
        Correspondence(AffineFeature(Point2(*a), 1.0, 0.0), AffineFeature(Point2(*b), 1.0, 0.0))
        for a, b in zip(src.tolist(), dst.tolist())
    ]


def result_fingerprint(result) -> tuple:
    """Every deterministic field of an ``EstimationResult``, models as bytes."""
    history = [(h.iteration, h.support, h.k_after, h.model.m.tobytes()) for h in result.history]
    inliers = result.inlier_indices.tolist()
    return result.model.m.tobytes(), inliers, result.support, result.iterations_run, result.k_final, history


def assert_models_equal_up_to_scale(got: np.ndarray, want: np.ndarray, atol: float) -> None:
    """(c, 3, 3) models agree within atol once each pair is scaled to Frobenius norm 1 and the same sign."""
    got = got / np.linalg.norm(got, axis=(1, 2), keepdims=True)
    want = want / np.linalg.norm(want, axis=(1, 2), keepdims=True)
    got *= np.sign((got * want).sum(axis=(1, 2)))[:, None, None]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)


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
