"""Evaluation helpers: success clustering and theoretical iteration curves.

When ground truth is unavailable, repeated estimation trials are judged by
clustering their mean reprojection errors: correct estimates pile up in a
dense low-error cluster while failures scatter. The curves module computes
how many iterations each strategy needs as a function of the inlier rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .robust import required_iterations

NOISE = -1

_UNCAPPED = 10**18


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Density clustering of per-trial mean errors.

    ``labels`` holds a cluster id per input value (in input order) or NOISE.
    ``winner`` is the id of the largest cluster (ties to the lower mean), or
    NOISE when everything is noise.
    """

    labels: np.ndarray
    winner: int


def dbscan_1d(values, eps: float, min_pts: int) -> ClusterResult:
    """Standard density clustering on the real line.

    A point is core when at least min_pts values (itself included) lie within
    eps of it; clusters grow from core points in ascending value order, which
    fixes border-point assignment deterministically. The largest cluster wins;
    ties break toward the lower mean (presumed the correct-estimates cluster).
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    n = vals.size
    if n == 0:
        raise ValueError("values must be non-empty")
    if eps <= 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")

    order = np.argsort(vals, kind="stable")
    sorted_vals = vals[order]
    lo = np.searchsorted(sorted_vals, sorted_vals - eps, side="left")
    hi = np.searchsorted(sorted_vals, sorted_vals + eps, side="right")
    is_core = (hi - lo) >= min_pts

    labels_sorted = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if not is_core[i] or labels_sorted[i] != NOISE:
            continue
        labels_sorted[i] = cluster
        queue = [i]
        while queue:
            j = queue.pop()
            for k in range(lo[j], hi[j]):
                if labels_sorted[k] == NOISE:
                    labels_sorted[k] = cluster
                    if is_core[k]:
                        queue.append(k)
        cluster += 1

    labels = np.empty(n, dtype=np.int64)
    labels[order] = labels_sorted

    winner, best_size, best_mean = NOISE, 0, math.nan
    for c in range(cluster):
        members = sorted_vals[labels_sorted == c]
        mean = float(members.mean())
        if members.size > best_size or (members.size == best_size and mean < best_mean):
            winner, best_size, best_mean = c, int(members.size), mean
    return ClusterResult(labels, winner)


@dataclass(frozen=True)
class TheoryRow:
    """One point of the iteration-count comparison."""

    w: float
    n: int
    k_ransac: int
    k_hsolo_total: float
    speedup: float


def theory_curves(w_range, n_values, p: float, n_f: int, w_f: float) -> list[TheoryRow]:
    """Iteration counts of plain n-point sampling vs the seeded two-stage scheme.

    Per inlier rate w: k_ransac = iterations for an all-inlier n-sample at
    confidence p; the two-stage cost proxy is k_outer * (log n_f + k_inner)
    with k_outer for single-correspondence draws at rate w and k_inner for
    4-samples at the filtered rate w_f. speedup > 1 means the seeded scheme
    needs fewer operations. Counts are uncapped.
    """
    if n_f < 1:
        raise ValueError(f"n_f must be >= 1, got {n_f}")
    k_inner = required_iterations(w_f, 4, p, _UNCAPPED)
    log_nf = math.log(n_f)
    rows: list[TheoryRow] = []
    for w in w_range:
        k_outer = required_iterations(w, 1, p, _UNCAPPED)
        k_hsolo = k_outer * (log_nf + k_inner)
        for n in n_values:
            k_r = required_iterations(w, n, p, _UNCAPPED)
            rows.append(TheoryRow(float(w), int(n), k_r, k_hsolo, k_r / k_hsolo))
    return rows
