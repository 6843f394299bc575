"""Tests for 1-D density clustering and the iteration-count comparison table."""

import math

import numpy as np
import pytest

from hsolo import ClusterResult, dbscan_1d, required_iterations, theory_curves
from hsolo.analysis import NOISE


def brute_force_dbscan(values, eps, min_pts):
    """Reference clustering with O(n^2) pairwise neighborhoods.

    Seeds expansion in ascending value order (ties by index) so border points
    claimed by two clusters resolve the same way as the production code.
    """
    values = [float(v) for v in values]
    n = len(values)
    neighbors = [
        [j for j in range(n) if abs(values[j] - values[i]) <= eps] for i in range(n)
    ]
    is_core = [len(neighbors[i]) >= min_pts for i in range(n)]
    labels = [NOISE] * n
    order = sorted(range(n), key=lambda i: (values[i], i))
    next_label = 0
    for seed in order:
        if labels[seed] != NOISE or not is_core[seed]:
            continue
        labels[seed] = next_label
        queue = [seed]
        while queue:
            i = queue.pop()
            if not is_core[i]:
                continue
            for j in neighbors[i]:
                if labels[j] == NOISE:
                    labels[j] = next_label
                    queue.append(j)
        next_label += 1
    return labels


def brute_force_winner(values, labels):
    """Indices of the largest cluster, ties to the lower mean; empty when all is noise."""
    groups = {}
    for i, lab in enumerate(labels):
        if lab != NOISE:
            groups.setdefault(lab, []).append(i)
    if not groups:
        return frozenset()
    best = min(groups.values(), key=lambda g: (-len(g), float(np.mean([values[i] for i in g]))))
    return frozenset(best)


def winning_values(values, res):
    """The values in the winning cluster; empty when everything is noise."""
    if res.winner == NOISE:
        return np.empty(0)
    return np.asarray(values, dtype=float)[res.labels == res.winner]


def cluster_partition(labels):
    """Group indices by label, ignoring noise, as a set of frozensets."""
    groups = {}
    for i, lab in enumerate(labels):
        if lab != NOISE:
            groups.setdefault(lab, set()).add(i)
    return {frozenset(g) for g in groups.values()}


class TestDbscan1d:
    def test_two_groups_with_far_noise(self):
        values = [1.0, 1.1, 1.2, 50.0, 51.0]
        res = dbscan_1d(values, eps=0.5, min_pts=2)
        won = winning_values(values, res)
        assert won.size == 3
        assert won.size / len(values) == pytest.approx(0.6)
        assert won.mean() == pytest.approx(1.1)
        assert res.labels[0] == res.labels[1] == res.labels[2] != NOISE

    def test_identical_values_form_one_cluster(self):
        res = dbscan_1d([7.0] * 10, eps=0.5, min_pts=5)
        won = winning_values([7.0] * 10, res)
        assert won.size == 10
        assert won.mean() == 7.0

    def test_all_noise_when_isolated(self):
        res = dbscan_1d([0.0, 10.0, 20.0, 30.0], eps=1.0, min_pts=2)
        assert res.winner == NOISE
        assert all(lab == NOISE for lab in res.labels)

    def test_min_pts_one_makes_every_point_core(self):
        res = dbscan_1d([0.0, 0.5, 1.0, 5.0], eps=0.6, min_pts=1)
        # Chained reachability merges the first three; the last is its own cluster.
        assert np.sum(res.labels == res.winner) == 3
        assert res.labels[3] != NOISE

    def test_tied_cluster_sizes_prefer_lower_mean(self):
        values = [0.0, 0.0, 0.0, 10.0, 10.0, 10.0]
        res = dbscan_1d(values, eps=0.5, min_pts=2)
        assert winning_values(values, res).tolist() == [0.0, 0.0, 0.0]
        assert [i for i, lab in enumerate(res.labels) if lab == res.winner] == [0, 1, 2]

    def test_neighborhood_is_closed_interval(self):
        # Points exactly eps apart are mutual neighbors.
        res = dbscan_1d([0.0, 0.5, 1.0], eps=0.5, min_pts=3)
        assert res.labels[1] != NOISE

    def test_labels_align_with_input_order(self):
        values = [50.0, 1.0, 51.0, 1.1, 1.2]
        res = dbscan_1d(values, eps=0.5, min_pts=2)
        assert res.labels[1] == res.labels[3] == res.labels[4] != NOISE
        assert len(res.labels) == len(values)

    def test_agrees_with_pairwise_oracle(self, rng):
        for trial in range(300):
            n = int(rng.integers(1, 50))
            values = np.round(rng.uniform(0, 20, size=n), 1)
            eps = float(rng.uniform(0.1, 3.0))
            min_pts = int(rng.integers(1, 8))
            res = dbscan_1d(values, eps=eps, min_pts=min_pts)
            want = brute_force_dbscan(values, eps, min_pts)
            assert cluster_partition(res.labels) == cluster_partition(want), (
                trial, values.tolist(), eps, min_pts,
            )
            noise_mine = {i for i, lab in enumerate(res.labels) if lab == NOISE}
            noise_want = {i for i, lab in enumerate(want) if lab == NOISE}
            assert noise_mine == noise_want
            won = {i for i, lab in enumerate(res.labels) if lab == res.winner != NOISE}
            assert won == brute_force_winner(values, want)

    def test_validation(self):
        with pytest.raises(ValueError):
            dbscan_1d([1.0], eps=0.0, min_pts=2)
        with pytest.raises(ValueError):
            dbscan_1d([1.0], eps=0.5, min_pts=0)
        with pytest.raises(ValueError):
            dbscan_1d([], eps=0.5, min_pts=2)


class TestTheoryCurves:
    def test_low_rate_baseline_count(self):
        rows = theory_curves([0.03], [4], 0.95, 21, 0.7)
        assert len(rows) == 1
        assert 3_600_000 <= rows[0].k_ransac <= 3_800_000

    def test_rows_cover_rate_by_size_product(self):
        rows = theory_curves([0.1, 0.2], [4, 8], 0.95, 21, 0.7)
        assert [(r.w, r.n) for r in rows] == [(0.1, 4), (0.1, 8), (0.2, 4), (0.2, 8)]

    def test_speedup_consistent_with_columns(self):
        for row in theory_curves([0.05, 0.1, 0.4], [4], 0.95, 21, 0.7):
            assert row.speedup == pytest.approx(row.k_ransac / row.k_hsolo_total, rel=1e-12)

    def test_high_rate_favors_plain_ransac(self):
        row = theory_curves([0.95], [4], 0.95, 21, 0.7)[0]
        assert row.speedup < 1.0

    def test_low_rate_speedup_is_orders_of_magnitude(self):
        row = theory_curves([0.03], [4], 0.95, 21, 0.7)[0]
        assert row.speedup > 100.0

    def test_baseline_column_is_uncapped(self):
        # At w = 0.01 and n = 4 the plain count exceeds the runtime cap.
        row = theory_curves([0.01], [4], 0.95, 21, 0.7)[0]
        direct = math.ceil(math.log(0.05) / math.log(1.0 - 0.01**4))
        # Direct evaluation may land on either side of the ceiling boundary.
        assert abs(row.k_ransac - direct) <= 1
        assert row.k_ransac > 10_000_000

    def test_matches_iteration_formula(self):
        for row in theory_curves([0.05, 0.2, 0.5], [4, 6], 0.95, 21, 0.7):
            assert row.k_ransac == required_iterations(
                row.w, row.n, 0.95, max_iterations=10**18
            )

    def test_empty_ranges_give_empty_table(self):
        assert theory_curves([], [4], 0.95, 21, 0.7) == []
        assert theory_curves([0.5], [], 0.95, 21, 0.7) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            theory_curves([0.0], [4], 0.95, 21, 0.7)
        with pytest.raises(ValueError):
            theory_curves([0.5], [4], 0.95, 0, 0.7)
