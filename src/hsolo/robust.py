"""Generic RANSAC engine for homographies.

The engine supports a sample pool distinct from the scoring pool: minimal
samples are drawn from ``sample_pool`` while support is always counted against
``score_pool``. With both pools equal this is the standard adaptive RANSAC.

Candidate models are evaluated in batches for speed, then replayed in
iteration order by one rule (``Replay``), so an improvement found at
iteration i still tightens the budget seen by iteration i + 1 exactly as in
a one-at-a-time loop. Several searches over one scoring pool can draw,
solve and score their first batches together, as hsolo's inner searches
do, and each still ends as it would alone. A search keeps its sample
points as one ``(2, 2, n)`` table, so a batch's samples are one gather in
the solver's layout, and its models stay entry-major, ``(3, 3, c)``, through
the validity test, the bound, the scorer and the replay. A batch
is scored in cache-sized tiles of points, and only the elements whose squared
x error alone is within the threshold go on to the y error, the singularity
test and the count. Once a model has a support of 4, each batch is first
bounded in float32 (``_SupportBound``), and only the candidates whose bound
beats the best support so far are scored exactly. All randomness comes from
a single generator seeded by the config, which makes runs with the same
inputs and seed reproducible; searches run together each keep their own.
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
from .solvers import _solve_gathered, dlt_solve

DEFAULT_MAX_ITERATIONS = 10_000_000

_CHUNK = 2048
# model x point elements scored per tile: one tile's x, y, w planes stay in cache
_TILE_ELEMENTS = 32_768
# model x point elements bounded per tile: one tile's float32 planes and mask fill about a 1 MB L2
_BOUND_TILE_ELEMENTS = 65_536
# relative and absolute slack of _SupportBound's float32 test (see there)
_BOUND_RTOL = 2.0**-18
_BOUND_ATOL = 2.0**-100
# pools and thresholds whose 9-term rows stay far inside float32's range
_BOUND_RANGE = 2.0**100


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


def _support_counts(models: np.ndarray, src_h: np.ndarray, dst: np.ndarray, epsilon: float) -> np.ndarray:
    """Inlier counts of each model over the scoring points.

    ``models`` is ``(3, 3, c)``, entry-major. Points are scored in tiles of
    about ``_TILE_ELEMENTS`` point x model elements. One ``(points, 3) @ (3, models)`` gemm per homography row
    fills a tile's x, y and w planes; it rounds as the stacked
    ``(3, 3) @ (3, n)`` product does, where ``(3c, 3) @ (3, n)`` would not.
    Only elements with ``dx * dx <= epsilon**2`` (``dx = x / w - u``) go on:
    rounding is monotone and ``dy * dy >= 0``, so their rounded sum is never
    below ``dx * dx`` (a NaN fails both tests). Those get ``dy``, the sum and
    the test ``|w| > SINGULARITY_RTOL * fro``, so a point mapped to the line
    at infinity, a NaN or an infinity never counts.
    """
    c, n = models.shape[-1], len(dst)
    chunk = max(1, _TILE_ELEMENTS // max(c, 1))
    rows = np.ascontiguousarray(models)  # rows[r]: every model's r-th row, (3, c)
    planes = np.empty((3, min(chunk, n), c))
    u, v = np.ascontiguousarray(dst.T)
    eps2 = epsilon * epsilon
    counts = np.zeros(c, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # each model's 9 squares summed as one contiguous row, the cut's summation order
        w_min = SINGULARITY_RTOL * np.sqrt(np.ascontiguousarray((rows**2).reshape(9, c).T).sum(axis=1))
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
    return counts


class _SupportBound:
    """Upper bounds on :func:`_support_counts` from a float32 box test, for one scoring pool.

    Each point gets the row ``[us, vs, 1, -u*us, -u*vs, -u, -v*us, -v*vs, -v]``
    of ``(n, 9)`` table ``T`` (source ``(us, vs)``, target ``(u, v)``).
    Each model, scaled by a power of two so its largest entry lies in
    [0.5, 1) (exact), writes its rows into a ``(3, 9)`` block ``C`` such that
    ``T @ C`` gives ``dx' = x - u*w``, ``dy' = y - v*w`` and ``eps*w``. One
    stacked ``np.matmul`` per tile of points gives the three planes, and a
    point counts toward a model's bound when
    ``max(|dx'|, |dy'|) - |eps*w| <= margin``.

    Why no exact inlier is missed. Let ``a`` be the column maxima of ``|T|``
    and ``S_p = sum_j |C_pj| * a_j`` the magnitude bound of plane ``p`` for
    one model; every term of every point's sum is within it. When
    :func:`_support_counts` counts a point, its rounded ``dx*dx`` and
    ``dy*dy`` are at most the rounded ``eps**2``, so
    ``|x/w - u| <= eps*(1 + 5r) + 2r*|u|`` with ``r = 2**-53``. Times
    ``|w|``, and with the float64 gemm's ``3r`` error on ``x`` and ``w``,
    the exact ``|dx'|`` is within ``eps*|w| + 9r * (S_dx' + S_w)``, and
    likewise ``|dy'|``. In float32 (``r32 = 2**-24``) the casts of ``T`` and
    ``C`` and the 9-term dot product, in any order, move each plane by at
    most ``12 r32 * S_p``, below ``2**-20 * S_p``; the abs, max and
    subtraction add one more rounding. The margin
    ``2**-18 * (max(S_dx', S_dy') + S_w)`` is four times that, which also
    covers its own cast to float32. Subnormal or
    flushed float32 values move each term by at most ``2**-126`` times
    ``a_j`` or ``max(1, eps)``, which ``2**-100 * (1 + eps) * sum(a)``
    covers, and the float64 kernel's underflow is far below it for models
    whose largest entry is at least 2**-600.

    A smaller model, or one with a non-finite entry, is zeroed, and a zero
    model's test ``0 <= margin`` counts every point, so it bounds at n.
    A pool with a non-finite coordinate, ``(1 + eps) * sum(a) >= 2**100``
    (float32 could overflow) or ``eps < 2**-100`` (``eps**2`` could
    underflow) is not bounded: every model gets n.

    Points are bounded in tiles of about ``_BOUND_TILE_ELEMENTS`` (65,536)
    point x model elements, twice the scorer's: the float32 planes and the
    mask of one tile, about 0.8 MB, stay in a 1 MB L2. A tile holds at most
    255 points, since each tile's per-model hit counts are ``uint8``.
    Buffers are allocated once, for one batch of at most ``_CHUNK`` models.
    """

    def __init__(self, src_h: np.ndarray, dst: np.ndarray, epsilon: float):
        self.n, self.epsilon = len(dst), epsilon
        with np.errstate(over="ignore", invalid="ignore"):
            table = np.hstack([src_h, -dst[:, :1] * src_h, -dst[:, 1:] * src_h])
            self.col_max = np.abs(table).max(axis=0, initial=0.0)
        total = (1.0 + epsilon) * self.col_max.sum()
        self.table = table.astype(np.float32) if epsilon >= _BOUND_ATOL and total < _BOUND_RANGE else None
        self.atol = _BOUND_ATOL * total
        self.coef = np.empty(27 * _CHUNK, dtype=np.float32)
        self.planes = np.empty(3 * _BOUND_TILE_ELEMENTS, dtype=np.float32)
        self.mask = np.empty(_BOUND_TILE_ELEMENTS, dtype=bool)
        self.hits = np.empty(_CHUNK, dtype=np.uint8)

    def __call__(self, models: np.ndarray) -> np.ndarray:
        """``(c,)`` int64 bounds of ``(3, 3, c)`` models, each at least ``_support_counts``' count of that model."""
        c, n = models.shape[-1], self.n
        if self.table is None:
            return np.full(c, n, dtype=np.int64)
        top = np.abs(models).max(axis=(0, 1), initial=0.0)
        _, exp = np.frexp(top)
        h = np.ldexp(models, -exp)  # h[r]: row r of every model
        h[..., ~(np.isfinite(top) & (exp >= -600))] = 0.0
        coef = self.coef[: 27 * c].reshape(3, 9, c)
        coef.fill(0.0)
        coef[0, :3], coef[0, 3:6] = h[0], h[2]
        coef[1, :3], coef[1, 6:] = h[1], h[2]
        coef[2, :3] = self.epsilon * h[2]
        mag, a = np.abs(h), self.col_max
        near, far = a[:3] @ mag, a[3:].reshape(2, 3) @ mag[2]  # (3, c) and (2, c) sums of a_j |h_rj|
        size = np.maximum(near[0] + far[0], near[1] + far[1]) + self.epsilon * near[2]
        margin = (_BOUND_RTOL * size + self.atol).astype(np.float32)
        chunk = min(255, max(1, _BOUND_TILE_ELEMENTS // max(c, 1)))  # uint8 hit counts per tile
        hits = self.hits[:c]
        counts = np.zeros(c, dtype=np.int64)
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            planes = self.planes[: 3 * (hi - lo) * c].reshape(3, hi - lo, c)
            np.matmul(self.table[lo:hi], coef, out=planes)
            dx, dy, ew = np.abs(planes, out=planes)
            np.maximum(dx, dy, out=dx)
            dx -= ew
            mask = np.less_equal(dx, margin, out=self.mask[: (hi - lo) * c].reshape(hi - lo, c))
            counts += np.add.reduce(mask.view(np.uint8), axis=0, dtype=np.uint8, out=hits)
        return counts


class Replay:
    """The one replay rule of a batched adaptive search: iterations run ``it`` and budget ``k``.

    RANSAC's draws, hsolo's inner draws and hsolo's walk of seeds are each
    evaluated a block at a time and then replayed in order, so that each
    gives the results of a one-at-a-time loop. :meth:`block` yields a
    block's candidates up to the first one at or past ``k``; the caller
    reports an improvement with :meth:`improve`, which sets ``it`` and
    shrinks ``k`` before the next candidate is looked at; after the block,
    ``it`` moves on to the block's end or the budget, whichever comes first.
    """

    __slots__ = ("it", "k")

    def __init__(self, k: int):
        self.it, self.k = 0, k

    def block(self, start: int, end: int, rows):
        """Yield the ``(j, item)`` pairs of ``rows`` (ascending offsets j from ``start``) that are within the budget.

        The caller consumes every pair: the end-of-block step runs when the
        iteration ends.
        """
        for j, item in rows:
            if start + j >= self.k:
                break
            yield j, item
        self.it = max(self.it, min(end, self.k))

    def improve(self, it: int, k: int) -> None:
        """An improvement at 1-based iteration ``it`` whose own budget is ``k``."""
        self.it = it
        self.k = min(self.k, k)


class _ScorePool:
    """A scoring pool's points as the scoring kernels take them, with its support bound built at first use."""

    def __init__(self, src: np.ndarray, dst: np.ndarray, epsilon: float):
        self.src_h = np.column_stack([src, np.ones(len(src))])
        self.dst, self.epsilon = dst, epsilon
        self._bound: _SupportBound | None = None

    def counts(self, models: np.ndarray) -> np.ndarray:
        return _support_counts(models, self.src_h, self.dst, self.epsilon)

    def bound(self, models: np.ndarray) -> np.ndarray:
        if self._bound is None:
            self._bound = _SupportBound(self.src_h, self.dst, self.epsilon)
        return self._bound(models)


def _solve(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(3, 3, c) models of gathered (2, 2, 4, c) samples, and the mask of those that are valid homographies."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        models, valid = _solve_gathered(pts)
        valid &= valid_homography(models)
    return models, valid


class _Search:
    """One adaptive RANSAC search: its draws, its budget and its best model so far.

    Draws are 4-samples of the sample points from ``rng``; a degenerate
    sample consumes its iteration. The sample points come as one
    ``(2, 2, n)`` table (coordinate, image, point), so a batch's samples are
    one gather, in the layout the solver takes, and its models stay
    ``(3, 3, c)`` through the bound, the scorer and the replay. The budget
    starts from ``w_init`` and is re-derived from support / n at each
    improvement, never increasing. Batches start at 256 draws, because an
    early improvement often collapses k and candidates drawn past the
    collapsed budget are wasted work, and double up to ``_CHUNK``. Each
    improvement is kept as ``(iteration, support, k_after, model)`` with the
    model as drawn: a caller that needs only the last one makes only that
    a :class:`Homography`.
    """

    def __init__(self, rng: np.random.Generator, table: np.ndarray, w_init: float, config: RansacConfig):
        self.rng, self.config = rng, config
        self.ns, self.table = table.shape[2], table
        self.walk = Replay(required_iterations(w_init, config.sample_size, config.p, config.max_iterations))
        self.batch = 256
        self.best_support = 0
        self.improvements: list[tuple[int, int, int, np.ndarray]] = []

    def draw(self) -> tuple[int, int, np.ndarray]:
        """The next batch: ``(start, end, pts)``, its iterations and its (2, 2, 4, c) samples."""
        start = self.walk.it
        end = start + min(self.batch, self.walk.k - start)
        self.batch = min(2 * self.batch, _CHUNK)
        samples = _draw_distinct(self.rng, self.ns, self.config.sample_size, end - start)
        return start, end, self.table.take(samples.T, axis=2)

    def replay(self, start: int, end: int, rows: np.ndarray, supports: np.ndarray, models: np.ndarray) -> None:
        """Replay a batch's scored draws (offsets ``rows`` into its ``(3, 3, c)`` models, in order).

        A draw left unscored cannot improve.
        """
        cfg = self.config
        for j, sup in self.walk.block(start, end, zip(rows.tolist(), supports.tolist())):
            if sup >= 4 and sup > self.best_support:
                self.best_support = sup
                w_hat = min(1.0, sup / self.ns)
                self.walk.improve(start + j + 1, required_iterations(w_hat, cfg.sample_size, cfg.p, cfg.max_iterations))
                self.improvements.append((self.walk.it, sup, self.walk.k, models[..., j]))

    def run(self, scorer: _ScorePool) -> None:
        """Draw, solve, score and replay batches until the budget is spent."""
        while self.walk.it < self.walk.k:
            start, end, pts = self.draw()
            models, valid = _solve(pts)
            rows = np.flatnonzero(valid)
            if self.best_support >= 4:
                # a candidate whose bound is at most best_support cannot improve at its
                # turn, since best_support only grows during the replay
                rows = rows[scorer.bound(models[..., rows]) > self.best_support]
            self.replay(start, end, rows, scorer.counts(models[..., rows]), models)


def _run_searches(searches: list[_Search], scorer: _ScorePool) -> None:
    """Run fresh searches over one scoring pool, their first batches drawn, solved and scored together.

    Each search ends as if run alone: its draws come from its own
    generator, the solver and the scorer treat every sample on its own, and
    a first batch has no best support to bound. A search whose budget
    outlasts its first batch then continues on its own.
    """
    if not searches:
        return
    batches = [s.draw() for s in searches]
    models, valid = _solve(np.concatenate([pts for _, _, pts in batches], axis=3))
    rows = np.flatnonzero(valid)
    supports = scorer.counts(models[..., rows])
    offsets = np.cumsum([0] + [end - start for start, end, _ in batches]).tolist()
    cuts = np.searchsorted(rows, offsets).tolist()
    for i, (search, (start, end, _)) in enumerate(zip(searches, batches)):
        lo, hi = offsets[i], offsets[i + 1]
        mine = slice(cuts[i], cuts[i + 1])
        search.replay(start, end, rows[mine] - lo, supports[mine], models[..., lo:hi])
        search.run(scorer)


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

    f_src, f_dst = pool_arrays(score_pool)
    s_src, s_dst = pool_arrays(sample_pool)
    search = _Search(np.random.default_rng(config.seed), np.stack((s_src.T, s_dst.T), axis=1), w_init, config)
    search.run(_ScorePool(f_src, f_dst, config.epsilon))
    if not search.improvements:
        raise NoModelFound("no sampled model reached a support of 4", search.walk.it)

    history = tuple(Improvement(it, sup, k, Homography._trusted(m)) for it, sup, k, m in search.improvements)
    best = history[-1].model
    idx = np.flatnonzero(transfer_errors(best.m, f_src, f_dst) <= config.epsilon)
    model, inlier_idx = _consensus_refit(best, idx, score_pool, f_src, f_dst, config.epsilon)
    return EstimationResult(
        model=model,
        inlier_indices=inlier_idx,
        support=int(inlier_idx.size),
        iterations_run=search.walk.it,
        k_final=search.walk.k,
        elapsed=time.perf_counter() - t0,
        history=history,
    )


def _consensus_refit(
    model: Homography, idx: np.ndarray, score_pool: Pool, f_src: np.ndarray, f_dst: np.ndarray, epsilon: float
) -> tuple[Homography, np.ndarray]:
    """Refit on ``idx``, the scoring-pool inliers of ``model``; keep the original if that degrades support.

    ``idx`` is ``np.flatnonzero(transfer_errors(model.m, f_src, f_dst) <= epsilon)``, which the
    caller computes. Returns the kept model and its inlier indices.
    """
    if idx.size < 4:
        return model, idx
    try:
        refit = dlt_solve(score_pool[idx])
    except (DegenerateConfiguration, IllConditioned, SingularMatrix):
        return model, idx
    refit_idx = np.flatnonzero(transfer_errors(refit.m, f_src, f_dst) <= epsilon)
    if refit_idx.size >= idx.size:
        return refit, refit_idx
    return model, idx
