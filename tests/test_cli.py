"""End-to-end tests of the command-line interface (in-process)."""

import warnings

import numpy as np
import pytest

from hsolo.cli import main
from hsolo.fileio import CORR_HEADER, RESULT_HEADER


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.csv"
    rc = main(["generate", str(path), "--n", "200", "--w", "0.3", "--seed", "11"])
    assert rc == 0
    return path


def parse_result(text):
    lines = text.splitlines()
    assert lines[0] == RESULT_HEADER
    return dict(ln.split(": ", 1) for ln in lines[1:])


class TestGenerate:
    def test_writes_flagged_byproduct_file(self, tmp_path):
        path = tmp_path / "scene.csv"
        assert main(["generate", str(path), "--n", "50", "--w", "0.2", "--seed", "1"]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == CORR_HEADER
        assert len(lines) == 51
        assert all(len(ln.split(",")) == 9 for ln in lines[1:])
        flags = [ln.rsplit(",", 1)[1] for ln in lines[1:]]
        assert flags.count("1") == 10

    def test_same_seed_same_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", str(p1), "--n", "80", "--w", "0.25", "--seed", "4"])
        main(["generate", str(p2), "--n", "80", "--w", "0.25", "--seed", "4"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_explicit_truth_matrix(self, tmp_path):
        path = tmp_path / "scene.csv"
        rc = main(
            ["generate", str(path), "--n", "30", "--w", "1.0", "--seed", "2",
             "--truth", "1,0,25,0,1,-10,0,0,1"]
        )
        assert rc == 0
        for ln in path.read_text().splitlines()[1:]:
            f = [float(x) for x in ln.split(",")]
            assert f[4] == pytest.approx(f[0] + 25.0)
            assert f[5] == pytest.approx(f[1] - 10.0)

    def test_bad_truth_length_fails(self, tmp_path):
        rc = main(["generate", str(tmp_path / "x.csv"), "--truth", "1,2,3"])
        assert rc == 2

    def test_infeasible_spec_fails_cleanly(self, tmp_path):
        rc = main(
            ["generate", str(tmp_path / "x.csv"), "--n", "40", "--w", "0.5",
             "--truth", "1,0,5000,0,1,0,0,0,1"]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--pixel-noise", "pixel_noise_sigma must be >= 0"),
            ("--scale-noise", "scale_noise_sigma must be >= 0"),
            ("--angle-noise", "angle_noise_sigma must be >= 0"),
            ("--width", "image bounds must be positive"),
            ("--height", "image bounds must be positive"),
        ],
    )
    def test_nan_parameter_is_bad_input(self, tmp_path, capsys, flag, message):
        path = tmp_path / "x.csv"
        assert main(["generate", str(path), flag, "nan"]) == 2
        assert message in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            ("generate x.csv --width inf", "image bounds must be positive"),
            ("generate x.csv --pixel-noise inf", "pixel_noise_sigma must be >= 0"),
            ("bench --height inf --trials 1 --n 100", "image bounds must be positive"),
        ],
    )
    def test_infinite_parameter_fails_its_range_check(self, tmp_path, capsys, command, message):
        argv = command.split()
        if argv[0] == "generate":
            argv[1] = str(tmp_path / argv[1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not (tmp_path / "x.csv").exists()


class TestSolve:
    def test_seeded_method_on_generated_scene(self, scene_file, capsys):
        rc = main(["solve", str(scene_file), "--method", "hsolo", "--seed", "3"])
        assert rc == 0
        doc = parse_result(capsys.readouterr().out)
        assert int(doc["support"]) >= 55  # 60 true inliers at w = 0.3
        assert doc["elapsed_s"] == "0"
        assert len(doc["model"].split()) == 9
        assert len(doc["inliers"].split()) == int(doc["support"])

    def test_baseline_method(self, scene_file, capsys):
        rc = main(["solve", str(scene_file), "--method", "ransac", "--seed", "3"])
        assert rc == 0
        doc = parse_result(capsys.readouterr().out)
        assert int(doc["support"]) >= 55

    def test_output_file(self, scene_file, tmp_path):
        out = tmp_path / "res.txt"
        rc = main(["solve", str(scene_file), "--method", "hsolo", "-o", str(out)])
        assert rc == 0
        assert out.read_text().startswith(RESULT_HEADER)

    def test_deterministic_across_runs(self, scene_file, capsys):
        main(["solve", str(scene_file), "--method", "hsolo", "--seed", "5"])
        first = capsys.readouterr().out
        main(["solve", str(scene_file), "--method", "hsolo", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_timing_flag_unredacts_elapsed(self, scene_file, capsys):
        rc = main(["solve", str(scene_file), "--method", "hsolo", "--timing"])
        assert rc == 0
        doc = parse_result(capsys.readouterr().out)
        assert float(doc["elapsed_s"]) > 0.0

    @pytest.mark.parametrize(
        "method, flag, name",
        [("hsolo", "--epsilon", "epsilon"), ("hsolo", "--epsilon-r", "epsilon_r"), ("ransac", "--epsilon", "epsilon")],
    )
    def test_nan_threshold_is_bad_input(self, scene_file, capsys, method, flag, name):
        assert main(["solve", str(scene_file), "--method", method, flag, "nan"]) == 2
        assert f"{name} must be > 0, got nan" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.csv")]) == 2

    def test_malformed_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{CORR_HEADER}\n1,2\n")
        assert main(["solve", str(bad)]) == 2

    def test_point_only_file_rejected_for_seeded_method(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text(
            f"{CORR_HEADER}\n" + "\n".join(f"{i},{i},{i + 1},{i + 2}" for i in range(10)) + "\n"
        )
        assert main(["solve", str(pts), "--method", "hsolo"]) == 2

    def test_point_only_file_allowed_for_baseline(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(30):
            u, v = float(rng.uniform(0, 640)), float(rng.uniform(0, 480))
            rows.append(f"{u!r},{v!r},{u + 12.0!r},{v - 7.0!r}")
        pts = tmp_path / "pts.csv"
        pts.write_text(f"{CORR_HEADER}\n" + "\n".join(rows) + "\n")
        rc = main(["solve", str(pts), "--method", "ransac", "--seed", "1"])
        assert rc == 0
        assert int(parse_result(capsys.readouterr().out)["support"]) == 30

    def test_hopeless_input_reports_no_model(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = []
        for _ in range(12):
            u1, v1, u2, v2 = (float(x) for x in rng.uniform(1, 600, size=4))
            rows.append(f"{u1!r},{v1!r},1.0,0.0,{u2!r},{v2!r},1.0,0.0")
        wild = tmp_path / "wild.csv"
        wild.write_text(f"{CORR_HEADER}\n" + "\n".join(rows) + "\n")
        rc = main(["solve", str(wild), "--method", "hsolo", "--epsilon-r", "1e-9"])
        assert rc == 1


@pytest.fixture(
    params=[(1e-200, 1e200), (1e200, 1e-200), (40.0, 0.2)], ids=["overflow", "underflow", "singular"]
)
def extreme_row_files(request, tmp_path):
    """A 300-row file with one extreme-byproduct row at each of three positions."""
    path = tmp_path / "scene.csv"
    assert main(["generate", str(path), "--n", "299", "--w", "0.05", "--seed", "5"]) == 0
    rows = [ln.rsplit(",", 1)[0] for ln in path.read_text().splitlines()[1:]]
    s1, s2 = request.param
    files = []
    for position in (0, 150, 299):
        edited = rows[:position] + [f"100.0,120.0,{s1!r},0.3,300.0,200.0,{s2!r},-0.2"] + rows[position:]
        out = tmp_path / f"extreme{position}.csv"
        out.write_text(f"{CORR_HEADER}\n" + "\n".join(edited) + "\n")
        files.append(out)
    return files


class TestExtremeRow:
    def test_solve_never_reports_bad_input(self, extreme_row_files, capsys):
        for path in extreme_row_files:
            assert main(["solve", str(path)]) in (0, 1)
            assert "error:" not in capsys.readouterr().err

    def test_calibration_skips_unusable_seed(self, extreme_row_files, capsys):
        for path in extreme_row_files:
            assert main(["calibrate-epsilon-r", str(path)]) == 0
            doc = dict(ln.split(": ", 1) for ln in capsys.readouterr().out.splitlines())
            assert doc["seed_set"] == "all" and int(doc["n_seeds"]) == 299


def test_header_only_file_is_bad_input_for_ransac(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(f"{CORR_HEADER}\n")
    for argv in (
        ["solve", str(empty), "--method", "ransac"],
        ["bench", "--input", str(empty), "--methods", "ransac", "--trials", "2"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sample pool has 0 < 4 correspondences\n"


def test_header_only_file_is_rejected_for_its_size_by_hsolo(tmp_path, capsys):
    """A file with no rows is not point-only: each command names the pool size."""
    empty = tmp_path / "empty.csv"
    empty.write_text(f"{CORR_HEADER}\n")
    for argv, err in (
        (["solve", str(empty)], "error: pool must hold >= 5 correspondences, got 0\n"),
        (["calibrate-epsilon-r", str(empty)], "error: pool must be non-empty\n"),
        (["bench", "--input", str(empty), "--methods", "hsolo", "--trials", "2"],
         "error: pool must hold >= 5 correspondences, got 0\n"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err, argv


@pytest.mark.parametrize("scale, solve_code", [(1e150, 0), (1e200, 1)])
def test_far_out_coordinates_print_no_numpy_warning(tmp_path, scale, solve_code):
    """40 rows mapping each point to itself, at coordinates near ``scale``."""
    pts = np.random.default_rng(0).uniform(0.0, 1.0, size=(40, 2)) * scale
    path = tmp_path / "far.csv"
    path.write_text(
        f"{CORR_HEADER}\n" + "".join(f"{u!r},{v!r},1.0,0.0,{u!r},{v!r},1.0,0.0\n" for u, v in pts.tolist())
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        codes = [
            main(["solve", str(path), "--method", "ransac"]),
            main(["solve", str(path)]),
            main(["bench", "--input", str(path), "--trials", "2"]),
        ]
    assert codes == [solve_code, solve_code, 0]
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


class TestBench:
    def test_synthetic_sweep_summary(self, capsys):
        rc = main(
            ["bench", "--w", "0.4", "--n", "200", "--trials", "3",
             "--methods", "hsolo,ransac", "--max-iterations", "10000", "--seed", "6"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        data = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert data[0].startswith("method\tw")
        assert len(data) == 3
        assert all("\t" in ln for ln in data)

    def test_records_out_file(self, tmp_path, capsys):
        rec = tmp_path / "records.tsv"
        rc = main(
            ["bench", "--w", "0.4", "--n", "200", "--trials", "2", "--methods", "hsolo",
             "--max-iterations", "10000", "--seed", "6", "--records-out", str(rec)]
        )
        assert rc == 0
        capsys.readouterr()
        lines = rec.read_text().splitlines()
        assert lines[0].startswith("method\t")
        assert len(lines) == 3

    def test_file_input(self, scene_file, capsys):
        rc = main(
            ["bench", "--input", str(scene_file), "--trials", "2", "--methods", "ransac",
             "--max-iterations", "10000", "--seed", "6"]
        )
        assert rc == 0
        assert "ransac" in capsys.readouterr().out

    def test_file_flagging_no_inliers_scores_inf_without_warning(self, scene_file, tmp_path):
        lines = scene_file.read_text().splitlines()
        zero = tmp_path / "zero.csv"
        zero.write_text("\n".join([lines[0]] + [ln.rsplit(",", 1)[0] + ",0" for ln in lines[1:]]) + "\n")
        rec = tmp_path / "records.tsv"
        argv = ["bench", "--input", str(zero), "--methods", "ransac", "--trials", "2",
                "--max-iterations", "2000", "--records-out", str(rec)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        header, *rows = rec.read_text().splitlines()
        column = header.split("\t").index("mean_reproj_error")
        assert [row.split("\t")[column] for row in rows] == ["inf", "inf"]

    def test_repeated_method_is_bad_input(self, capsys):
        rc = main(["bench", "--trials", "2", "--n", "200", "--w", "0.05,0.3",
                   "--methods", "hsolo,hsolo,ransac", "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_worker_count_invariant_output(self, capsys):
        argv = ["bench", "--w", "0.3", "--n", "200", "--trials", "4", "--methods", "hsolo",
                "--max-iterations", "10000", "--seed", "6"]
        main(argv + ["--workers", "1"])
        single = capsys.readouterr().out
        main(argv + ["--workers", "4"])
        assert capsys.readouterr().out == single

    def test_unknown_method_fails(self, capsys):
        assert main(["bench", "--w", "0.4", "--methods", "sorcery", "--trials", "1"]) == 2

    def test_nan_epsilon_fails_before_any_trial(self, capsys):
        # a NaN threshold used to let RANSAC run to its draw cap
        argv = ["bench", "--epsilon", "nan", "--methods", "ransac", "--trials", "2", "--n", "200", "--w", "0.2"]
        assert main(argv) == 2
        assert "epsilon must be > 0, got nan" in capsys.readouterr().err

    def test_nan_rate_fails_its_range_check(self, capsys):
        # it used to fail sizing the scene: "cannot convert float NaN to integer"
        assert main(["bench", "--trials", "1", "--n", "100", "--w", "0.2,nan"]) == 2
        assert capsys.readouterr().err == "error: inlier_rate must be in (0, 1], got nan\n"


class TestTheory:
    def test_table_output(self, capsys):
        rc = main(["theory", "--w", "0.03,0.4", "--n-values", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "w\tn\tk_ransac\tk_hsolo_total\tspeedup"
        assert len(lines) == 3
        k_low = int(lines[1].split("\t")[2])
        assert 3_600_000 <= k_low <= 3_800_000

    def test_bad_rate_fails(self, capsys):
        assert main(["theory", "--w", "0,0.4"]) == 2

    @pytest.mark.parametrize("n_values", ["2.5", "4,7.5", "inf", "nan"])
    def test_fractional_sample_size_fails(self, capsys, n_values):
        assert main(["theory", "--n-values", n_values]) == 2
        assert capsys.readouterr().out == ""

    def test_whole_float_sample_size_is_accepted(self, capsys):
        assert main(["theory", "--w", "0.1", "--n-values", "4.0"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split("\t")[1] == "4"


class TestCalibrate:
    def test_reports_suggested_threshold(self, scene_file, capsys):
        rc = main(["calibrate-epsilon-r", str(scene_file)])
        assert rc == 0
        out = capsys.readouterr().out
        doc = dict(ln.split(": ", 1) for ln in out.splitlines() if ": " in ln)
        assert float(doc["suggested_epsilon_r"]) > 0.0
        assert int(doc["n_seeds"]) >= 4

    def test_point_only_file_rejected(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text(
            f"{CORR_HEADER}\n" + "\n".join(f"{i},{i},{i},{i}" for i in range(10)) + "\n"
        )
        assert main(["calibrate-epsilon-r", str(pts)]) == 2

    def test_zero_fence_is_bad_input(self, tmp_path, capsys):
        """Noise-free inlier seeds all have median 0: a suggestion no estimator accepts."""
        path = tmp_path / "c.csv"
        truth = "1,0,25,0,1,-10,0,0,1"
        assert main(["generate", str(path), "--n", "200", "--w", "0.3", "--seed", "3", "--truth", truth]) == 0
        capsys.readouterr()
        assert main(["calibrate-epsilon-r", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: epsilon_r must be > 0, got 0.0\n")

    @pytest.mark.parametrize("nf", [1, 3, 4])
    def test_filtered_set_size_follows_the_estimators_rule(self, scene_file, capsys, nf):
        """An n_f every estimator rejects is bad input here too, in the same words."""
        err = f"error: n_f must be >= 5, got {nf}\n"
        for command in ("calibrate-epsilon-r", "solve"):
            assert main([command, str(scene_file), "--nf", str(nf)]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", err), command
        assert main(["calibrate-epsilon-r", str(scene_file), "--nf", "5"]) == 0
