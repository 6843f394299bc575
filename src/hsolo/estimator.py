"""Homography estimation seeded from single feature correspondences.

One scale/rotation-aware correspondence pins down a similarity approximation
of the homography. Ranking the pool by reprojection error under that
approximation concentrates inliers near the top, so a small inner RANSAC on
the best-ranked subset can recover the full model in a handful of draws. The
outer loop walks seed correspondences of a shuffled pool, uses the median
filtered error as a cheap gate to skip hopeless seeds, and adapts its
iteration budget as support improves. Seeds are gated a window at a time:
one matrix product per window screens out the seeds that cannot pass (the
idea of R-RANSAC's pre-test, Chum & Matas 2002, applied to seeds) and is
the gate's only count; only the candidates left get exact errors and gate
medians, and the passing ones filtered sets. Their inner searches run a few
candidates at a time, and then the seeds are replayed in order, so the
budget and draws are those of a one-at-a-time loop. A reached seed's model
gets the consensus refit only if one of its inliers lies outside the best
consensus set so far, as LO-RANSAC (Chum, Matas & Kittler 2003) optimises
only hypotheses that may become the best; the other seeds would refit a
subset of the best's inliers.
The winning model is polished by a damped Gauss-Newton (Levenberg-Marquardt)
pass over its inliers, and the whole pool is re-thresholded under the result.
Pools are taken as a :class:`~hsolo.geometry.Pool` or as a sequence of
correspondences, converted once by ``as_pool``.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import InsufficientData, NoModelFound, SingularMatrix
from .geometry import (
    Homography, Pool, apply_homogeneous, as_pool, pool_arrays, transfer_errors,
    valid_homography,
)
from .robust import (
    DEFAULT_MAX_ITERATIONS,
    EstimationResult,
    Improvement,
    RansacConfig,
    Replay,
    _consensus_refit,
    _run_searches,
    _ScorePool,
    _Search,
    required_iterations,
)
# ransac_homography and single_match_homography are not called here: perfbench's
# tracer wraps these module attributes
from .robust import ransac_homography  # noqa: F401
from .solvers import similarity_sketch, single_match_homography  # noqa: F401


@dataclass(frozen=True)
class HsoloConfig:
    """Parameters of the single-correspondence estimation loop.

    ``inlier_scaling`` discounts the observed inlier rate when recomputing the
    outer iteration budget, compensating for seeds whose scale/rotation
    byproducts are too noisy to pass the gate even though the match itself is
    an inlier.
    """

    epsilon: float = 4.0
    p: float = 0.95
    w_f: float = 0.7
    n_f: int = 21
    epsilon_r: float = 20.0
    inlier_scaling: float = 0.7
    max_outer_iterations: int = DEFAULT_MAX_ITERATIONS
    seed: int = 0

    def __post_init__(self):
        if not self.epsilon > 0.0:  # NaN fails too
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {self.p}")
        if not 0.0 < self.w_f < 1.0:
            raise ValueError(f"w_f must be in (0, 1), got {self.w_f}")
        if self.n_f < 5:
            raise ValueError(f"n_f must be >= 5, got {self.n_f}")
        if not self.epsilon_r > 0.0:
            raise ValueError(f"epsilon_r must be > 0, got {self.epsilon_r}")
        if not 0.0 < self.inlier_scaling <= 1.0:
            raise ValueError(f"inlier_scaling must be in (0, 1], got {self.inlier_scaling}")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be >= 1")


# Seeds are gated a window at a time. Windows start small, because an early
# improvement can cut the outer budget to a few seeds, and double up to the
# row count that keeps each (rows, n) float64 temporary within this many
# elements (512 KB); larger windows would save little per seed. The walk then
# takes the gate candidates, across windows, _SEARCH_BATCH at a time through
# the exact gate and the inner searches: each batch has a fixed cost, and its
# candidates past the walk's end are wasted work.
_FIRST_SEED_BLOCK = 32
_SEED_BLOCK_ELEMENTS = 1 << 16
_SEARCH_BATCH = 4


def _max_seed_block(n: int) -> int:
    return max(1, _SEED_BLOCK_ELEMENTS // n)


def _median_of_smallest(part: np.ndarray, take: int) -> np.ndarray:
    """Median of the ``take`` smallest values along the last axis.

    ``part`` must hold its values of rank (take - 1) // 2 and take // 2 in
    place, as a sort or an ``np.partition`` at those ranks leaves them. An
    even count averages the middle pair, as ``np.median`` does.
    """
    lo, hi = (take - 1) // 2, take // 2
    if lo == hi:
        return part[..., hi]
    return (part[..., lo] + part[..., hi]) / 2.0


def _gate_threshold(epsilon_r: float) -> float:
    """A bound on squared distances that every error ``<= epsilon_r`` keeps.

    An error is ``np.hypot(dx, dy)``, within one ulp of sqrt(dx**2 + dy**2);
    each of the three roundings in ``dx*dx + dy*dy`` adds at most half an
    ulp more. So an error ``e <= epsilon_r`` has
    ``dx*dx + dy*dy <= epsilon_r**2 * (1 + 2**-49)`` wherever the values
    are normal, and the relative slack 2**-40 covers that with room for the
    roundings of this bound. Where the error, a square or ``epsilon_r**2``
    is subnormal, each is off by at most 2**-1074 absolute, which the
    smallest normal double added here covers. A sum that overflows needs
    ``epsilon_r**2`` to overflow too, and that gives +inf, which keeps every
    row. A NaN squared distance goes with an error of NaN or +inf, which
    the exact gate makes +inf, above every finite epsilon_r.
    """
    return epsilon_r * epsilon_r * (1.0 + 2.0**-40) + sys.float_info.min


def _filtered_set(errors: np.ndarray, part: np.ndarray, take: int) -> np.ndarray:
    """The ``take`` smallest ``errors``' indices, by error then index; ``part`` is partitioned at take - 1."""
    # every entry tied with the take-th smallest is a candidate; flatnonzero
    # lists them by index and the stable sort keeps that order among ties
    cand = np.flatnonzero(errors <= part[take - 1])
    return cand[np.argsort(errors[cand], kind="stable")[:take]]


def _sketches(seeds: Pool) -> tuple[np.ndarray, np.ndarray]:
    """The top two rows of each seed's similarity sketch, shape ``(2, 3, seeds)``, and the mask of usable ones.

    Entries are bit for bit those of ``single_match_homography(seeds[i])``.
    A sketch that fails :func:`~hsolo.geometry.valid_homography`
    (non-finite or singular) is not usable, and its entries are zeroed so
    that no kernel downstream overflows on it.
    """
    u1, v1, s1, t1, u2, v2, s2, t2 = seeds.rows.T
    # math.cos and math.sin, as single_match_homography takes them, because
    # numpy's vector versions may round differently
    delta = (t2 - t1).tolist()
    cos_d = np.array([math.cos(d) for d in delta])
    sin_d = np.array([math.sin(d) for d in delta])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sketch = similarity_sketch(u1, v1, u2, v2, s2 / s1, cos_d, sin_d)
        # Homography's test on the same entries. A passing similarity has
        # r**2 > 1e-12 * fro**3 and r**2 < fro**2 / 2, so fro < 5e11: h9 = 1
        # stays significant, Homography keeps the entries as given, and
        # transfer_errors divides by exactly 1 and flags no point.
        ok = valid_homography(sketch)
    return np.where(ok, np.array(sketch[:2]), 0.0), ok


class _GatePool:
    """A pool's points as the seed gate takes them, with the prefilter's features built once."""

    def __init__(self, src: np.ndarray, dst: np.ndarray):
        points = np.array((src[:, 0], src[:, 1], dst[:, 0], dst[:, 1]))
        self.u, self.v, self.x, self.y = points
        self.features = None
        magnitude = np.abs(points)
        nonzero = magnitude[magnitude != 0.0]
        # a NaN minimum fails the test too
        if nonzero.size == 0 or 2.0**-200 <= nonzero.min() and nonzero.max() <= 2.0**200:
            u, v, x, y = points
            self.features = np.array(
                (u * u + v * v, u, v, np.ones_like(u), x * x + y * y, u * x + v * y, v * x - u * y, x, y)
            )
            self.max_features = np.abs(self.features).max(axis=1)

    def candidates(self, top: np.ndarray, ok: np.ndarray, take: int, threshold: float) -> np.ndarray:
        """Every row whose gate median can be within epsilon_r, at ``threshold = _gate_threshold(epsilon_r)``: one product.

        The median is at least the row's error of rank (take - 1) // 2 (it
        is that error for odd take), so a row can pass only if more than
        (take - 1) // 2 of its errors are within epsilon_r, and each of
        those has a squared distance within ``threshold``. A sketch's rows
        are (a, -d, c) and (d, a, f), as ``similarity_sketch`` makes them, so
        a point's squared distance
        ``(a*u - d*v + c - x)**2 + (d*u + a*v + f - y)**2`` is the dot product
        of the row's coefficients ``C = (a*a + d*d, 2*(c*a + f*d),
        2*(f*a - c*d), c*c + f*f, 1, -2*a, 2*d, -2*c, -2*f)`` with the
        point's features ``F = (u*u + v*v, u, v, 1, x*x + y*y, u*x + v*y,
        v*x - u*y, x, y)``. A point is near unless ``C @ F > threshold +
        slack``, with ``slack = 2**-40 * (|C| @ max|F|) + 2**-600``, and a
        usable row is a candidate if more than (take - 1) // 2 of its points
        are near; NaN counts as near.

        The bound: write S for the sum of ``|C[i] * F[i]|`` at a point,
        which ``|C| @ max|F|`` bounds. AM-GM bounds every cross term by terms
        of S (``2*|c*a*u| <= C[0]*F[0] + C[3]``, for one), and the squares
        of ``|a*u| + |d*v| + |c| + |x|`` and of its y twin add up to at most
        4*S. So the roundings of ``dx*dx + dy*dy`` on the exact gate's
        displacements move it by at most 48 * 2**-53 * S, those of C, F and
        their product move ``C @ F`` by at most 22 * 2**-53 * S, and the
        two differ by less
        than ``2**-46 * S``, well within the slack, as long as nothing
        overflows and what underflows moves them by less than 2**-600. A
        usable sketch has entries below 5e11 (see :func:`_sketches`), so
        that holds on a pool whose nonzero coordinates all lie in
        [2**-200, 2**200]: every feature is then normal or zero, and no
        product comes near overflow. So every squared distance within
        ``threshold`` is near here, and the candidates include every row
        that can pass. On any other pool every usable row is a candidate,
        and at a threshold of +inf every row is. The product only selects
        rows, so results do not depend on how it rounds.
        """
        if threshold == math.inf:
            return np.arange(ok.size)
        if self.features is None:
            return np.flatnonzero(ok)
        (a, _, c), (d, _, f) = top
        coef = np.array(
            (a * a + d * d, 2.0 * (c * a + f * d), 2.0 * (f * a - c * d), c * c + f * f, np.ones_like(a),
             -2.0 * a, 2.0 * d, -2.0 * c, -2.0 * f)
        )
        limit = threshold + (2.0**-40 * (np.abs(coef).T @ self.max_features) + 2.0**-600)
        far = np.count_nonzero(coef.T @ self.features > limit[:, None], axis=1)
        return np.flatnonzero(ok & (self.u.size - far > (take - 1) // 2))


def _exact_gate(top: np.ndarray, ok: np.ndarray, labels: np.ndarray, gate: _GatePool, take: int, epsilon_r: float):
    """The gate medians of sketches ``top`` (usable where ``ok``) and, for those that pass, cuts for the filtered sets.

    Returns ``(medians, passing)``. A row's errors are those of every pool
    point under its sketch, bit for bit what
    ``transfer_errors(single_match_homography(seed).m, src, dst)`` gives,
    except that NaN becomes +inf; an unusable row's errors are all +inf, so
    it fails every finite gate. ``medians[r]`` is the median of the row's
    ``take`` smallest errors. ``passing`` yields ``(labels[r], cut)`` in
    order for each row with ``medians[r] <= epsilon_r``; ``cut()`` returns
    the indices of the ``take`` smallest errors, ordered by error and then
    by index, so a set is cut only for a seed the caller asks for. The walk
    hands it the rows that :meth:`_GatePool.candidates` keeps.
    """
    # one (rows, 1) column per entry against the pool's points; w is exactly 1
    dx, dy = np.empty((2, ok.size, gate.u.size))
    apply_homogeneous((*top[..., None], (0.0, 0.0, 1.0)), gate.u, gate.v, out=(dx, dy))
    dx -= gate.x
    dy -= gate.y
    errors = np.hypot(dx, dy, out=dx)
    errors[~ok] = np.inf
    errors[np.isnan(errors)] = np.inf
    # the median's ranks, and take - 1, where the filtered sets cut their candidates
    part = np.partition(errors, sorted({(take - 1) // 2, take // 2, take - 1}), axis=1)
    medians = _median_of_smallest(part, take)
    passed = np.flatnonzero(medians <= epsilon_r).tolist()
    return medians, ((int(labels[r]), partial(_filtered_set, errors[r], part[r], take)) for r in passed)


def seed_medians(seeds, pool, n_f: int) -> np.ndarray:
    """Gate median of each seed: the quantity ``hsolo_estimate`` compares with epsilon_r.

    For every seed, the median error of the min(n_f, len(pool)) pool entries
    ranked best by the seed's similarity sketch; +inf for a seed whose
    byproducts give no usable sketch. Seeds are evaluated in blocks by the
    walk's own sketches and exact gate, at a gate of +inf.
    """
    if not pool:
        raise ValueError("pool must be non-empty")
    if n_f < 1:
        raise ValueError(f"n_f must be >= 1, got {n_f}")
    seeds = as_pool(seeds)
    gate = _GatePool(*pool_arrays(pool))
    take = min(n_f, len(pool))
    rows = _max_seed_block(len(pool))
    # a block's medians may be a view of its partitioned errors; copying them
    # out at once frees each block's errors before the next block
    medians = np.empty(len(seeds))
    for i in range(0, len(seeds), rows):
        medians[i : i + rows] = _exact_gate(*_sketches(seeds[i : i + rows]), range(i, i + rows), gate, take,
                                            math.inf)[0]
    return medians


def estimate_epsilon_r(errors) -> float:
    """Upper-fence outlier bound Q3 + 3*(Q3 - Q1) of an error sample.

    Quartiles use linear interpolation. Intended for calibrating the gate
    threshold on data where the default does not fit.
    """
    arr = np.asarray(errors, dtype=np.float64).ravel()
    if arr.size < 4:
        raise InsufficientData(f"need >= 4 error samples, got {arr.size}")
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    return float(q3 + 3.0 * (q3 - q1))


@dataclass(frozen=True)
class Refinement:
    """Outcome of nonlinear model refinement.

    ``degraded`` is True when refinement could not run (numerically unusable
    starting point); the model is then the unchanged input.
    """

    model: Homography
    initial_cost: float
    final_cost: float
    iterations: int
    degraded: bool


def _residuals_and_jacobian(params: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """Stacked reprojection residuals and their Jacobian for 8-parameter models.

    ``params`` are the first 8 row-major homography entries with the ninth
    fixed at 1. Rows interleave x and y residuals per point. Division by a
    vanishing denominator is left to produce non-finite values the caller must
    reject.
    """
    u, v = src[:, 0], src[:, 1]
    big_x, big_y, big_w = apply_homogeneous(np.append(params, 1.0).reshape(3, 3).tolist(), u, v)
    iw = 1.0 / big_w
    x = big_x * iw
    y = big_y * iw
    m = src.shape[0]
    r = np.empty(2 * m)
    r[0::2] = x - dst[:, 0]
    r[1::2] = y - dst[:, 1]
    jac = np.zeros((2 * m, 8))
    jac[0::2, 0] = u * iw
    jac[0::2, 1] = v * iw
    jac[0::2, 2] = iw
    jac[0::2, 6] = -x * u * iw
    jac[0::2, 7] = -x * v * iw
    jac[1::2, 3] = u * iw
    jac[1::2, 4] = v * iw
    jac[1::2, 5] = iw
    jac[1::2, 6] = -y * u * iw
    jac[1::2, 7] = -y * v * iw
    return r, jac


def refine_model(h: Homography, inliers) -> Refinement:
    """Minimize the sum of squared reprojection errors over the inlier set.

    Levenberg-Marquardt on the 8 free entries (bottom-right fixed at 1):
    damping starts at 1e-3, shrinks tenfold on accepted steps and grows
    tenfold on rejected ones. Stops on relative cost decrease below 1e-10,
    step norm below 1e-12, or 100 attempted steps. The returned cost never
    exceeds the initial cost. The chart is ``h``'s canonical form, which has
    h9 = 1 exactly when h9 is significant; if it is not, or the starting
    point is numerically unusable, the input is returned unchanged with
    ``degraded`` set.
    """
    if len(inliers) < 4:
        raise ValueError(f"need >= 4 inliers, got {len(inliers)}")
    src, dst = pool_arrays(inliers)
    initial_cost = float(np.sum(transfer_errors(h.m, src, dst) ** 2))
    # the 8-parameter chart is the canonical form with h9 = 1
    if h.m[2, 2] != 1.0:
        return Refinement(h, initial_cost, initial_cost, 0, degraded=True)
    params = h.m.ravel()[:8].copy()

    # overflow at far-out coordinates is caught by the isfinite checks
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r, jac = _residuals_and_jacobian(params, src, dst)
        if not (np.isfinite(r).all() and np.isfinite(jac).all()):
            return Refinement(h, initial_cost, initial_cost, 0, degraded=True)

        cost = float(r @ r)
        start_cost = cost
        lam = 1e-3
        eye = np.eye(8)
        for attempts in range(1, 101):
            grad = jac.T @ r
            normal = jac.T @ jac
            try:
                delta = np.linalg.solve(normal + lam * eye, -grad)
            except np.linalg.LinAlgError:
                if cost < start_cost:
                    break
                return Refinement(h, initial_cost, initial_cost, attempts, degraded=True)
            step = float(np.linalg.norm(delta))
            candidate = params + delta
            r2, jac2 = _residuals_and_jacobian(candidate, src, dst)
            ok = np.isfinite(r2).all() and np.isfinite(jac2).all()
            cand_cost = float(r2 @ r2) if ok else math.inf
            if cand_cost < cost:
                rel_drop = (cost - cand_cost) / cost if cost > 0.0 else 0.0
                params, r, jac, cost = candidate, r2, jac2, cand_cost
                lam = max(lam * 0.1, 1e-15)
                if rel_drop < 1e-10 or step < 1e-12:
                    break
            else:
                lam *= 10.0
                if step < 1e-12 or lam > 1e15:
                    break

    if cost >= start_cost:
        return Refinement(h, initial_cost, initial_cost, attempts, degraded=False)
    try:
        refined = Homography(np.append(params, 1.0))
    except (SingularMatrix, ValueError):
        return Refinement(h, initial_cost, initial_cost, attempts, degraded=True)
    # initial_cost comes from transfer_errors, start_cost from the residuals;
    # they differ only by rounding
    return Refinement(refined, initial_cost, cost, attempts, degraded=False)


def _polish(model: Homography, inlier_idx: np.ndarray, pool: Pool, src, dst, epsilon: float):
    """hsolo's end stage: ``refine_model`` on the winner's inliers, then the whole pool re-thresholded.

    The refined model and the indices of ``pool`` (arrays ``src``, ``dst``)
    within ``epsilon`` of it replace the winner's unless refinement is
    ``degraded`` or fewer than 4 indices remain.
    """
    refinement = refine_model(model, pool[inlier_idx])
    if refinement.degraded:
        return model, inlier_idx
    refined_idx = np.flatnonzero(transfer_errors(refinement.model.m, src, dst) <= epsilon)
    if refined_idx.size < 4:
        return model, inlier_idx
    return refinement.model, refined_idx


def hsolo_estimate(pool, config: HsoloConfig) -> EstimationResult:
    """Estimate a homography from a correspondence pool with byproducts.

    Shuffles the pool once, then per outer iteration: build the similarity
    approximation from the next correspondence, rank the pool by its error,
    and if the median of the best n_f is within epsilon_r run an inner RANSAC
    that samples from those n_f but scores on the whole pool. The outer budget
    starts from an assumed inlier rate of 1/len(pool) and is re-derived (for
    single-draw samples, with ``inlier_scaling`` applied) whenever the best
    support improves; the loop also never exceeds len(pool) seeds. The best
    model is refined before being returned. Reported inlier indices refer to
    the pool order given by the caller.

    Sketches are gated for a window of upcoming seeds at once (32 seeds at
    first, doubling up to a fixed element budget): one matrix product per
    window bounds each seed's count of nearby points from above, and only
    the seeds it keeps (the gate candidates) get exact pool errors and a
    gate median, four at a time; those that pass get a filtered set cut from
    the same partition as the median. The pool is stacked once into the
    table the inner searches gather their filtered sets from. A batch's
    inner searches draw their first batches (each from the seed's own
    stream), solve and score them together. Then the seeds are replayed in
    order, so budget updates and random draws are exactly those of
    evaluating one seed at a time. A found model is refit
    only when the walk reaches its seed and one of the model's inliers (error
    within ``epsilon`` on the whole pool) lies outside the best consensus set
    so far; a seed whose inliers all lie in that set is passed over, though
    in rare cases its refit would have won. A seed whose byproducts give a
    non-finite or singular sketch fails the gate.

    Raises :class:`NoModelFound` when no seed passes the gate or no inner
    RANSAC reaches a support of 4.
    """
    t0 = time.perf_counter()
    pool = as_pool(pool)
    n = len(pool)
    if n < 5:
        raise ValueError(f"pool must hold >= 5 correspondences, got {n}")

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    shuffled = pool[perm]
    src, dst = pool_arrays(shuffled)
    table = np.stack((src.T, dst.T), axis=1)
    scorer = _ScorePool(src, dst, config.epsilon)
    inner_config = RansacConfig(epsilon=config.epsilon, p=config.p)

    def outer_budget(w: float) -> int:
        scaled = min(1.0, w * config.inlier_scaling)
        return required_iterations(scaled, 1, config.p, config.max_outer_iterations)

    walk = Replay(outer_budget(1.0 / n))
    best: tuple[Homography, np.ndarray] | None = None  # the best seed's model and inlier indices
    in_best = np.zeros(n, dtype=bool)  # the best's inliers as a mask of the pool
    history: list[Improvement] = []
    gate = _GatePool(src, dst)
    take = min(config.n_f, n)
    threshold = _gate_threshold(config.epsilon_r)
    # the gate runs ahead of the walk: seeds [0, gated) are gated, and the
    # candidates among them not yet searched wait at their walk positions
    gated = 0
    inner_seeds: list[int] = []
    waiting, waiting_top, waiting_ok = np.empty(0, dtype=np.intp), np.empty((2, 3, 0)), np.empty(0, dtype=bool)
    max_rows = _max_seed_block(n)
    rows = min(_FIRST_SEED_BLOCK, max_rows)
    while walk.it < min(walk.k, n):
        # gate windows of seeds until a batch of candidates waits or the gate
        # reaches the budget
        while waiting.size < _SEARCH_BATCH and gated < min(walk.k, n):
            end = min(walk.k, n, gated + rows)
            rows = min(2 * rows, max_rows)
            top, ok = _sketches(shuffled[gated:end])
            # every seed gated draws its inner seed, the same stream as one
            # draw per seed walked; seeds past the walk's end are never used
            inner_seeds += rng.integers(0, 2**63, size=end - gated).tolist()
            cand = gate.candidates(top, ok, take, threshold)
            waiting = np.concatenate((waiting, gated + cand))
            waiting_top = np.concatenate((waiting_top, top[..., cand]), axis=2)
            waiting_ok = np.concatenate((waiting_ok, ok[cand]))
            gated = end
        # the next candidates within the budget: each draws from its own
        # stream, so what its search finds does not depend on the walk, and
        # all of them run together
        b = int(np.count_nonzero(waiting[:_SEARCH_BATCH] < walk.k))
        found = []
        if b:
            _, passing = _exact_gate(waiting_top[..., :b], waiting_ok[:b], waiting[:b], gate, take,
                                     config.epsilon_r)
            searches = {}
            for i, cut in passing:
                filtered = cut()
                searches[i] = _Search(np.random.default_rng(inner_seeds[i]), table[..., filtered], config.w_f,
                                      inner_config)
            _run_searches(list(searches.values()), scorer)
            found = [(i, s.improvements[-1][3]) for i, s in searches.items() if s.improvements]
            waiting, waiting_top, waiting_ok = waiting[b:], waiting_top[..., b:], waiting_ok[b:]
        # replay the found models (each search's last improvement, as drawn)
        # in walk order, each refit when the walk reaches it unless all of its
        # inliers are already the best's: an improvement shrinks k before the
        # next model is looked at. The walk then stands at the next waiting
        # candidate, or at the gate's end.
        for i, drawn in walk.block(0, int(waiting[0]) if waiting.size else gated, found):
            model = Homography._trusted(drawn)
            idx = np.flatnonzero(transfer_errors(model.m, src, dst) <= config.epsilon)
            if best is not None and in_best[idx].all():
                continue
            model, idx = _consensus_refit(model, idx, shuffled, src, dst, config.epsilon)
            if best is None or idx.size > best[1].size:
                best = model, idx
                in_best[:] = False
                in_best[idx] = True
                walk.improve(i + 1, outer_budget(min(1.0, idx.size / n)))
                history.append(Improvement(walk.it, idx.size, walk.k, model))

    if best is None:
        raise NoModelFound("no seed correspondence led to a model with support >= 4", walk.it)

    model, inlier_idx = _polish(*best, shuffled, src, dst, config.epsilon)
    return EstimationResult(
        model=model,
        inlier_indices=np.sort(perm[inlier_idx]),
        support=int(inlier_idx.size),
        iterations_run=walk.it,
        k_final=walk.k,
        elapsed=time.perf_counter() - t0,
        history=tuple(history),
    )
