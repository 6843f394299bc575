"""Tests for the benchmark driver: trial orchestration, summaries, clustering."""

import concurrent.futures
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsolo
from hsolo import (
    FileFormatError,
    HsoloConfig,
    RansacConfig,
    SceneSpec,
    SceneSweep,
    bench,
    cli,
    generate_scene,
    load_correspondences,
    random_scene_truth,
    run_benchmark,
    save_correspondences,
)
from hsolo.bench import _held_out_pairs, format_records, format_summary
from hsolo.fileio import LoadedCorrespondences
from hsolo.geometry import Pool


FAST_HSOLO = HsoloConfig(max_outer_iterations=10_000, seed=0)
FAST_RANSAC = RansacConfig(max_iterations=10_000, seed=0)


def summary_cell(result, method, w):
    rows = [r for r in result.summary if r.method == method and r.w_target == w]
    assert len(rows) == 1
    return rows[0]


class TestHeldOutPairs:
    def test_grid_pairs_follow_truth(self, rng):
        from hsolo import Point2, project
        from conftest import random_truth

        truth = random_truth(rng)
        a, b = _held_out_pairs(truth, (640.0, 480.0))
        assert a.shape == b.shape == (25, 2)
        for k in range(25):
            q = project(truth, Point2(a[k, 0], a[k, 1]))
            np.testing.assert_allclose([q.u, q.v], b[k], atol=1e-9)


class TestSyntheticSweep:
    def test_easy_rate_both_methods_succeed(self):
        sweep = SceneSweep((640.0, 480.0), 300, (0.4,))
        res = run_benchmark(sweep, ["hsolo", "ransac"], 6, FAST_HSOLO, FAST_RANSAC, seed=1)
        assert len(res.records) == 12
        for method in ("hsolo", "ransac"):
            row = summary_cell(res, method, 0.4)
            assert row.trials == 6 and row.skipped == 0
            assert row.successes == 6
            assert row.success_rate == 1.0
            assert row.median_error < 2.0

    def test_summary_agrees_with_records(self):
        sweep = SceneSweep((640.0, 480.0), 300, (0.2, 0.4))
        res = run_benchmark(sweep, ["ransac"], 5, FAST_HSOLO, FAST_RANSAC, seed=2)
        for row in res.summary:
            recs = [r for r in res.records if r.method == row.method and r.w_true == row.w_target]
            assert row.successes == sum(r.success for r in recs)
            assert row.trials == len(recs)

    def test_infeasible_rate_skips_seeded_method(self):
        # c = round(100 * 0.05) = 5 expected true inliers; 5 / 21 < 0.7.
        sweep = SceneSweep((640.0, 480.0), 100, (0.05,))
        res = run_benchmark(sweep, ["hsolo", "ransac"], 4, FAST_HSOLO, FAST_RANSAC, seed=3)
        row = summary_cell(res, "hsolo", 0.05)
        assert row.skipped == 4
        assert row.successes == 0
        assert math.isnan(row.success_rate)
        assert any("skip" in note for note in res.notes)
        assert summary_cell(res, "ransac", 0.05).trials == 4

    def test_same_seed_reproduces_records(self):
        sweep = SceneSweep((640.0, 480.0), 200, (0.3,))
        r1 = run_benchmark(sweep, ["hsolo"], 4, FAST_HSOLO, FAST_RANSAC, seed=9)
        r2 = run_benchmark(sweep, ["hsolo"], 4, FAST_HSOLO, FAST_RANSAC, seed=9)
        # Wall time may differ; every reported field must not.
        assert format_records(r1.records) == format_records(r2.records)
        assert format_summary(r1) == format_summary(r2)

    def test_worker_count_does_not_change_results(self):
        # one process pool runs every rate; hsolo is skipped at w=0.05 (5 expected inliers)
        sweep = SceneSweep((640.0, 480.0), 100, (0.05, 0.3, 0.4))
        r1 = run_benchmark(sweep, ["hsolo", "ransac"], 3, FAST_HSOLO, FAST_RANSAC, seed=9,
                           workers=1)
        r4 = run_benchmark(sweep, ["hsolo", "ransac"], 3, FAST_HSOLO, FAST_RANSAC, seed=9,
                           workers=4)
        assert format_records(r4.records) == format_records(r1.records)
        assert format_summary(r4) == format_summary(r1)

    def test_repeated_method_is_rejected(self):
        # A repeated name would run hsolo at w=0.05, where its note says it is skipped.
        sweep = SceneSweep((640.0, 480.0), 200, (0.05, 0.3))
        with pytest.raises(ValueError, match="once"):
            run_benchmark(sweep, ["hsolo", "hsolo", "ransac"], 2, FAST_HSOLO, FAST_RANSAC, seed=1)

    def test_method_order_does_not_change_a_method_s_records(self):
        sweep = SceneSweep((640.0, 480.0), 200, (0.05, 0.3))
        ab = run_benchmark(sweep, ["hsolo", "ransac"], 3, FAST_HSOLO, FAST_RANSAC, seed=5)
        ba = run_benchmark(sweep, ["ransac", "hsolo"], 3, FAST_HSOLO, FAST_RANSAC, seed=5)

        def fields(res, method):
            return [
                (r.w_true, r.success, r.mean_reproj_error, r.iterations, r.seed)
                for r in res.records
                if r.method == method
            ]

        for method in ("hsolo", "ransac"):
            assert fields(ab, method) == fields(ba, method) != []
        # c = 10 expected inliers at w = 0.05: hsolo is skipped there in either order
        assert summary_cell(ab, "hsolo", 0.05).skipped == summary_cell(ba, "hsolo", 0.05).skipped == 3

    def test_validation(self):
        sweep = SceneSweep((640.0, 480.0), 200, (0.3,))
        with pytest.raises(ValueError):
            run_benchmark(sweep, [], 4, FAST_HSOLO, FAST_RANSAC)
        with pytest.raises(ValueError):
            run_benchmark(sweep, ["magic"], 4, FAST_HSOLO, FAST_RANSAC)
        with pytest.raises(ValueError):
            run_benchmark(sweep, ["hsolo"], 0, FAST_HSOLO, FAST_RANSAC)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({name: bad}, f"{name} must be >= 0")
            for name in ("pixel_noise_sigma", "scale_noise_sigma", "angle_noise_sigma")
            for bad in (-1.0, math.nan, math.inf)
        ]
        + [({"n_total": 7}, "n_total must be >= 8, got 7")]
        + [
            ({"image_bounds": bounds}, f"image bounds must be positive, got {bounds}")
            for bounds in ((0.0, 480.0), (640.0, math.inf), (math.nan, 480.0))
        ],
    )
    def test_bad_recipe_fails_at_construction(self, kwargs, message):
        fields = dict(image_bounds=(640.0, 480.0), n_total=100, inlier_rates=(0.2, 0.4))
        with pytest.raises(ValueError) as caught:
            SceneSweep(**{**fields, **kwargs})
        assert str(caught.value) == message

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_is_rejected(self, workers):
        # it used to run the trials serially
        sweep = SceneSweep((640.0, 480.0), 100, (0.2,))
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_benchmark(sweep, ["hsolo", "ransac"], 1, FAST_HSOLO, FAST_RANSAC, workers=workers)


def write_scene_file(tmp_path, with_mask=True, with_byproducts=True, w=0.4, n=120, seed=5):
    rng = np.random.default_rng(seed)
    truth = random_scene_truth(rng, (640.0, 480.0))
    spec = SceneSpec(truth=truth, image_bounds=(640.0, 480.0), n_total=n,
                     inlier_rate=w, seed=seed + 1)
    pool, mask = generate_scene(spec)
    path = tmp_path / "scene.csv"
    if with_byproducts:
        save_correspondences(path, pool, inlier_mask=mask if with_mask else None)
    else:
        from hsolo.fileio import CORR_HEADER

        lines = [CORR_HEADER]
        for c, flag in zip(pool, mask):
            row = f"{c.a.p.u!r},{c.a.p.v!r},{c.b.p.u!r},{c.b.p.v!r}"
            if with_mask:
                row += f",{int(flag)}"
            lines.append(row)
        path.write_text("\n".join(lines) + "\n")
    return path, truth, mask


class TestFileBenchmark:
    def test_flagged_file_scores_against_flags(self, tmp_path):
        path, truth, mask = write_scene_file(tmp_path)
        loaded = load_correspondences(path)
        res = run_benchmark(loaded, ["hsolo", "ransac"], 3, FAST_HSOLO, FAST_RANSAC, seed=4)
        w_true = float(mask.mean())
        for method in ("hsolo", "ransac"):
            row = summary_cell(res, method, w_true)
            assert row.successes == 3

    def test_unflagged_file_uses_consensus_clustering(self, tmp_path):
        path, truth, mask = write_scene_file(tmp_path, with_mask=False)
        loaded = load_correspondences(path)
        res = run_benchmark(loaded, ["hsolo"], 8, FAST_HSOLO, FAST_RANSAC, seed=6)
        # All trials find the same model, so they form one tight cluster.
        row = res.summary[0]
        assert row.successes == 8
        assert row.success_rate == 1.0
        # the held-out error spans the outliers too, so no fit error is reported
        assert math.isnan(row.median_error)

    def test_point_only_file_cannot_run_seeded_method(self, tmp_path):
        path, _, _ = write_scene_file(tmp_path, with_byproducts=False)
        loaded = load_correspondences(path)
        with pytest.raises(FileFormatError, match="point-only file"):
            run_benchmark(loaded, ["hsolo"], 2, FAST_HSOLO, FAST_RANSAC)

    def test_point_only_file_runs_baseline(self, tmp_path):
        path, _, mask = write_scene_file(tmp_path, with_byproducts=False)
        loaded = load_correspondences(path)
        res = run_benchmark(loaded, ["ransac"], 2, FAST_HSOLO, FAST_RANSAC, seed=7)
        assert summary_cell(res, "ransac", float(mask.mean())).successes == 2


class TestFormatting:
    def run_small(self):
        sweep = SceneSweep((640.0, 480.0), 200, (0.3,))
        return run_benchmark(sweep, ["hsolo"], 3, FAST_HSOLO, FAST_RANSAC, seed=8)

    def test_records_table_shape(self):
        res = self.run_small()
        lines = format_records(res.records).splitlines()
        header = lines[0].split("\t")
        assert header == ["method", "w_true", "success", "mean_reproj_error",
                         "iterations", "elapsed_s", "seed"]
        assert len(lines) == 1 + len(res.records)
        for ln in lines[1:]:
            fields = ln.split("\t")
            assert fields[0] == "hsolo"
            assert fields[5] == "0"  # timing redacted by default

    def test_summary_table_shape(self):
        res = self.run_small()
        lines = format_summary(res).splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        header = data[0].split("\t")
        assert header[:4] == ["method", "w", "trials", "skipped"]
        assert len(data) == 2

    def test_timing_opt_in(self):
        res = self.run_small()
        out = format_records(res.records, include_timing=True)
        elapsed = [ln.split("\t")[5] for ln in out.splitlines()[1:]]
        assert all(e != "0" for e in elapsed)

    def test_notes_become_comments(self):
        sweep = SceneSweep((640.0, 480.0), 100, (0.05,))
        res = run_benchmark(sweep, ["hsolo"], 2, FAST_HSOLO, FAST_RANSAC, seed=3)
        out = format_summary(res)
        assert any(ln.startswith("# ") for ln in out.splitlines())


class TestWorkers:
    @pytest.fixture
    def recorder(self, monkeypatch):
        """Pool sizes asked for, by a serial stand-in for ProcessPoolExecutor on 3 usable CPUs."""
        sizes = []

        class SerialExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 3)
        return sizes

    @pytest.mark.parametrize(
        "workers, trials, sizes",
        [(1000, 2, [2]), (1000, 4, [3]), (2, 4, [2]), (1, 4, []), (1000, 1, [])],
    )
    def test_pool_size_is_capped_by_trials_and_cpus(self, recorder, workers, trials, sizes):
        sweep = SceneSweep((640.0, 480.0), 100, (0.3,))
        res = run_benchmark(sweep, ["ransac"], trials, FAST_HSOLO, FAST_RANSAC, seed=2, workers=workers)
        assert recorder == sizes
        serial = run_benchmark(sweep, ["ransac"], trials, FAST_HSOLO, FAST_RANSAC, seed=2)
        assert format_records(res.records) == format_records(serial.records)

    def test_one_pool_runs_every_rate(self, recorder):
        # hsolo is skipped at w=0.05 (5 expected inliers), so that rate runs only ransac
        sweep = SceneSweep((640.0, 480.0), 100, (0.05, 0.3, 0.4))
        res = run_benchmark(sweep, ["hsolo", "ransac"], 2, FAST_HSOLO, FAST_RANSAC, seed=4, workers=8)
        assert recorder == [3]
        serial = run_benchmark(sweep, ["hsolo", "ransac"], 2, FAST_HSOLO, FAST_RANSAC, seed=4)
        assert format_records(res.records) == format_records(serial.records)
        assert format_summary(res) == format_summary(serial)

    def test_trial_exception_keeps_its_type(self):
        # hsolo_estimate rejects the 3-row pool inside each trial, on the worker processes
        rows = [[100.0 + i, 120.0, 1.0, 0.1, 110.0 + i, 125.0, 1.0, 0.1] for i in range(3)]
        loaded = LoadedCorrespondences(Pool(np.array(rows)), None, True)
        with pytest.raises(ValueError, match="pool must hold >= 5 correspondences, got 3") as caught:
            run_benchmark(loaded, ["hsolo"], 3, FAST_HSOLO, FAST_RANSAC, workers=2)
        assert type(caught.value) is ValueError

    def test_bad_recipe_fails_before_any_worker_starts(self, recorder, capsys):
        argv = ["bench", "--pixel-noise", "-1", "--workers", "2", "--trials", "2",
                "--n", "100", "--w", "0.2"]
        assert cli.main(argv) == 2
        assert recorder == []
        assert capsys.readouterr().err == "error: pixel_noise_sigma must be >= 0\n"

    def test_import_leaves_out_the_process_machinery(self):
        src = str(Path(hsolo.__file__).resolve().parents[1])
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); import hsolo; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"
