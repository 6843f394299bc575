"""Generic RANSAC engine for homographies.

The engine supports a sample pool distinct from the scoring pool: minimal
samples are drawn from ``sample_pool`` while support is always counted against
``score_pool``. With both pools equal this is the standard adaptive RANSAC.

Candidate models are evaluated in batches for speed, then replayed in
iteration order, so an improvement found at iteration i still tightens the
budget seen by iteration i + 1 exactly as in a one-at-a-time loop. A batch
is scored in cache-sized tiles of points, and only the elements whose squared
x error alone is within the threshold go on to the y error, the singularity
test and the count. All randomness comes from a single generator seeded by
the config, which makes runs with the same inputs and seed reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateConfiguration, IllConditioned, NoModelFound, SingularMatrix
from .geometry import (
    SINGULARITY_RTOL, Homography, Pool, as_pool, pool_arrays, transfer_errors, valid_homography
)
from .solvers import dlt_solve, solve_minimal_batch

DEFAULT_MAX_ITERATIONS = 10_000_000

_CHUNK = 2048
# model x point elements scored per tile: one tile's x, y, w planes stay in cache
_TILE_ELEMENTS = 32_768


def required_iterations(w: float, n: int, p: float, max_iterations: int = DEFAULT_MAX_ITERATIONS) -> int:
    """Iterations needed to draw at least one all-inlier n-sample with probability p.

    ceil(log(1-p) / log(1 - w**n)), clamped to [1, max_iterations]. An inlier
    rate of 1 returns 1.
    """
    if not 0.0 < w <= 1.0:
        raise ValueError(f"inlier rate must be in (0, 1], got {w}")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"success probability must be in (0, 1), got {p}")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    wn = w**n
    if wn >= 1.0:
        return 1
    denom = math.log1p(-wn)
    if denom == 0.0:  # w**n underflowed
        return max_iterations
    k = math.ceil(math.log1p(-p) / denom)
    return max(1, min(k, max_iterations))


@dataclass(frozen=True)
class RansacConfig:
    """Parameters of a RANSAC run.

    ``sample_size`` is fixed at 4, the closed-form minimal solver's; result
    documents echo it.
    """

    epsilon: float = 4.0
    p: float = 0.95
    sample_size: int = field(default=4, init=False)
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {self.p}")
        if not self.epsilon > 0.0:  # NaN fails too
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class Improvement:
    """Diagnostic record of one best-support update."""

    iteration: int  # 1-based iteration count at which the improvement landed
    support: int
    k_after: int
    model: Homography


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of a robust estimation run."""

    model: Homography
    inlier_indices: np.ndarray  # sorted indices into the scoring pool
    support: int
    iterations_run: int
    k_final: int
    elapsed: float
    history: tuple[Improvement, ...] = field(default=(), repr=False)


def _draw_distinct(rng: np.random.Generator, n: int, s: int, count: int) -> np.ndarray:
    """(count, s) samples of distinct indices in [0, n), uniform over subsets."""
    if n <= 64:
        keys = rng.random((count, n))
        return np.argpartition(keys, s - 1, axis=1)[:, :s]
    out = rng.integers(0, n, size=(count, s))
    a, b = np.triu_indices(s, 1)  # every pair of columns
    while True:
        bad = (out[:, a] == out[:, b]).any(axis=1)
        n_bad = int(bad.sum())
        if n_bad == 0:
            return out
        out[bad] = rng.integers(0, n, size=(n_bad, s))


def _support_counts(
    models: np.ndarray, valid: np.ndarray, src_h: np.ndarray, dst: np.ndarray, epsilon: float
) -> np.ndarray:
    """Inlier counts of each model over the scoring points.

    Points are scored in tiles of about ``_TILE_ELEMENTS`` point x model
    elements. One ``(points, 3) @ (3, models)`` gemm per homography row
    fills a tile's x, y and w planes; it rounds as the stacked
    ``(3, 3) @ (3, n)`` product does, where ``(3c, 3) @ (3, n)`` would not.
    Only elements with ``dx * dx <= epsilon**2`` (``dx = x / w - u``) go on:
    rounding is monotone and ``dy * dy >= 0``, so their rounded sum is never
    below ``dx * dx`` (a NaN fails both tests). Those get ``dy``, the sum and
    the test ``|w| > SINGULARITY_RTOL * fro``, so a point mapped to the line
    at infinity, a NaN or an infinity never counts.
    """
    c, n = len(models), len(dst)
    chunk = max(1, _TILE_ELEMENTS // max(c, 1))
    rows = np.ascontiguousarray(models.transpose(1, 2, 0))  # rows[r]: every model's r-th row, (3, c)
    planes = np.empty((3, min(chunk, n), c))
    u, v = np.ascontiguousarray(dst.T)
    eps2 = epsilon * epsilon
    counts = np.zeros(c, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w_min = SINGULARITY_RTOL * np.sqrt((models**2).sum(axis=(1, 2)))
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            np.matmul(src_h[lo:hi], rows, out=planes[:, : hi - lo])
            x, y, w = planes[:, : hi - lo]
            x /= w
            x -= u[lo:hi, None]
            x *= x
            hit = np.flatnonzero(x <= eps2)
            point, model = np.divmod(hit, c)
            wh = w.ravel()[hit]
            dy = y.ravel()[hit] / wh - v[lo + point]
            inlier = (x.ravel()[hit] + dy * dy <= eps2) & (np.abs(wh) > w_min[model])
            counts += np.bincount(model[inlier], minlength=c)
    counts[~valid] = 0
    return counts


def ransac_homography(sample_pool, score_pool, w_init: float | None, config: RansacConfig) -> EstimationResult:
    """Adaptive RANSAC with separate sampling and scoring pools (each a Pool or a sequence).

    Draws 4 distinct correspondences (``config.sample_size``) per iteration from
    ``sample_pool`` (a degenerate sample consumes its iteration), solves it
    exactly in closed form, and counts support in ``score_pool`` at threshold
    ``config.epsilon``. The iteration budget starts from ``w_init`` (None:
    plain RANSAC's min(1, sample_size / len(sample_pool))) and is re-derived
    from support / len(sample_pool) after each improvement, never increasing.
    The best model is refit on all of its scoring-pool inliers before being
    returned.

    Raises :class:`NoModelFound` if no candidate reaches a support of 4.
    """
    t0 = time.perf_counter()
    sample_pool, score_pool = as_pool(sample_pool), as_pool(score_pool)
    ns = len(sample_pool)
    if ns < config.sample_size:
        raise ValueError(f"sample pool has {ns} < {config.sample_size} correspondences")
    if w_init is None:
        w_init = min(1.0, config.sample_size / ns)
    if not 0.0 < w_init <= 1.0:
        raise ValueError(f"w_init must be in (0, 1], got {w_init}")

    s_src, s_dst = pool_arrays(sample_pool)
    f_src, f_dst = pool_arrays(score_pool)
    src_h = np.column_stack([f_src, np.ones(len(score_pool))])

    rng = np.random.default_rng(config.seed)
    k = required_iterations(w_init, config.sample_size, config.p, config.max_iterations)

    best_support = 0
    best_model: Homography | None = None
    history: list[Improvement] = []
    it = 0
    # start with small batches: an early improvement often collapses k, and
    # candidates drawn past the collapsed budget are wasted work
    batch = 256
    while it < k:
        chunk = min(batch, k - it)
        batch = min(2 * batch, _CHUNK)
        samples = _draw_distinct(rng, ns, config.sample_size, chunk)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            models, valid = solve_minimal_batch(s_src[samples], s_dst[samples])
            valid &= valid_homography(models.transpose(1, 2, 0))
        supports = _support_counts(models, valid, src_h, f_dst, config.epsilon)
        for j, sup in enumerate(supports.tolist()):
            if it >= k:
                break
            it += 1
            if sup >= 4 and sup > best_support:
                model = Homography._trusted(models[j])
                best_support = sup
                best_model = model
                w_hat = min(1.0, sup / ns)
                k = min(
                    k,
                    required_iterations(w_hat, config.sample_size, config.p, config.max_iterations),
                )
                history.append(Improvement(it, sup, k, model))

    if best_model is None:
        raise NoModelFound("no sampled model reached a support of 4")

    model, inlier_idx = _consensus_refit(best_model, score_pool, f_src, f_dst, config.epsilon)
    return EstimationResult(
        model=model,
        inlier_indices=inlier_idx,
        support=int(inlier_idx.size),
        iterations_run=it,
        k_final=k,
        elapsed=time.perf_counter() - t0,
        history=tuple(history),
    )


def _consensus_refit(
    model: Homography, score_pool: Pool, f_src: np.ndarray, f_dst: np.ndarray, epsilon: float
) -> tuple[Homography, np.ndarray]:
    """Refit on all scoring-pool inliers; keep the original if that degrades support."""
    errs = transfer_errors(model.m, f_src, f_dst)
    idx = np.flatnonzero(errs <= epsilon)
    if idx.size >= 4:
        try:
            refit = dlt_solve(score_pool[idx])
        except (DegenerateConfiguration, IllConditioned, SingularMatrix):
            refit = None
        if refit is not None:
            errs2 = transfer_errors(refit.m, f_src, f_dst)
            idx2 = np.flatnonzero(errs2 <= epsilon)
            if idx2.size >= idx.size:
                return refit, idx2
    return model, idx
