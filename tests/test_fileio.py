"""Tests for the correspondence file format and result documents."""

import io
import math

import numpy as np
import pytest

from hsolo import (
    FileFormatError,
    Homography,
    HsoloConfig,
    SceneSpec,
    generate_scene,
    load_correspondences,
    random_scene_truth,
    save_correspondences,
)
from hsolo.fileio import CORR_HEADER, RESULT_HEADER, save_result, write_result
from hsolo.geometry import Pool
from hsolo.robust import EstimationResult


@pytest.fixture
def scene():
    rng = np.random.default_rng(321)
    truth = random_scene_truth(rng, (640.0, 480.0))
    spec = SceneSpec(truth=truth, image_bounds=(640.0, 480.0), n_total=60,
                     inlier_rate=0.4, seed=99)
    pool, mask = generate_scene(spec)
    return truth, pool, mask


class TestRoundTrip:
    def test_values_survive_bitwise(self, tmp_path, scene):
        _, pool, mask = scene
        path = tmp_path / "pairs.csv"
        save_correspondences(path, pool, inlier_mask=mask)
        loaded = load_correspondences(path)
        assert loaded.has_byproducts
        assert len(loaded.correspondences) == len(pool)
        np.testing.assert_array_equal(loaded.inlier_mask, mask)
        for orig, back in zip(pool, loaded.correspondences):
            assert back.a.p == orig.a.p and back.b.p == orig.b.p
            assert back.a.scale == orig.a.scale and back.b.scale == orig.b.scale
            assert back.a.angle == orig.a.angle and back.b.angle == orig.b.angle

    def test_extreme_magnitudes_survive(self, tmp_path):
        from hsolo import AffineFeature, Correspondence, Point2

        c = Correspondence(
            AffineFeature(Point2(1e-8, 123456.789012345678), 1e-6, -3.141592653589793),
            AffineFeature(Point2(-7.25, 0.1), 987654.321, 3.0),
        )
        path = tmp_path / "pairs.csv"
        save_correspondences(path, [c])
        back = load_correspondences(path).correspondences[0]
        assert back.a.p == c.a.p and back.b.p == c.b.p
        assert back.a.scale == c.a.scale and back.a.angle == c.a.angle

    def test_loaded_pool_equals_generated_pool(self, tmp_path, scene):
        _, pool, mask = scene
        path = tmp_path / "pairs.csv"
        save_correspondences(path, pool, inlier_mask=mask)
        loaded = load_correspondences(path).correspondences
        assert isinstance(pool, Pool) and isinstance(loaded, Pool)
        assert loaded == pool
        assert loaded.rows.tobytes() == pool.rows.tobytes()
        save_correspondences(tmp_path / "from-list.csv", list(pool), inlier_mask=mask)
        assert (tmp_path / "from-list.csv").read_bytes() == path.read_bytes()

    def test_without_mask_column(self, tmp_path, scene):
        _, pool, _ = scene
        path = tmp_path / "pairs.csv"
        save_correspondences(path, pool)
        loaded = load_correspondences(path)
        assert loaded.inlier_mask is None
        assert loaded.has_byproducts
        assert loaded.byproduct_pool() is loaded.correspondences

    def test_mask_length_mismatch_rejected(self, tmp_path, scene):
        _, pool, mask = scene
        with pytest.raises(ValueError):
            save_correspondences(tmp_path / "x.csv", pool, inlier_mask=mask[:-1])


class TestLoader:
    def write(self, tmp_path, body):
        path = tmp_path / "pairs.csv"
        path.write_text(body)
        return path

    def test_point_only_rows_get_placeholder_byproducts(self, tmp_path):
        path = self.write(tmp_path, f"{CORR_HEADER}\n1,2,3,4\n5,6,7,8\n")
        loaded = load_correspondences(path)
        assert not loaded.has_byproducts
        with pytest.raises(FileFormatError, match="point-only file"):
            loaded.byproduct_pool()
        c = loaded.correspondences[0]
        assert (c.a.p.u, c.a.p.v, c.b.p.u, c.b.p.v) == (1.0, 2.0, 3.0, 4.0)
        assert c.a.scale == 1.0 and c.a.angle == 0.0

    def test_point_rows_with_flag(self, tmp_path):
        path = self.write(tmp_path, f"{CORR_HEADER}\n1,2,3,4,1\n5,6,7,8,0\n")
        loaded = load_correspondences(path)
        np.testing.assert_array_equal(loaded.inlier_mask, [True, False])

    def test_blank_lines_are_skipped(self, tmp_path):
        path = self.write(tmp_path, f"{CORR_HEADER}\n\n1,2,3,4\n\n\n5,6,7,8\n")
        assert len(load_correspondences(path).correspondences) == 2

    def test_missing_header(self, tmp_path):
        path = self.write(tmp_path, "1,2,3,4\n")
        with pytest.raises(FileFormatError) as ei:
            load_correspondences(path)
        assert ei.value.line == 1

    def test_version_mismatch_names_expected_version(self, tmp_path):
        path = self.write(tmp_path, "hsolo-corr v2\n1,2,3,4\n")
        with pytest.raises(FileFormatError) as ei:
            load_correspondences(path)
        assert "v1" in str(ei.value)

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        path = self.write(tmp_path, f"{CORR_HEADER}\n1,2,3,4\n1,2,3\n5,6,7,8\n")
        with pytest.raises(FileFormatError) as ei:
            load_correspondences(path)
        assert ei.value.line == 3
        assert str(ei.value).startswith("line 3:")

    def test_inconsistent_field_count_rejected(self, tmp_path):
        path = self.write(
            tmp_path, f"{CORR_HEADER}\n1,2,1,0,3,4,1,0\n1,2,3,4\n"
        )
        with pytest.raises(FileFormatError) as ei:
            load_correspondences(path)
        assert ei.value.line == 3

    def test_non_numeric_field_rejected(self, tmp_path):
        path = self.write(tmp_path, f"{CORR_HEADER}\n1,2,three,4\n")
        with pytest.raises(FileFormatError) as ei:
            load_correspondences(path)
        assert ei.value.line == 2

    def test_bad_flag_value_rejected(self, tmp_path):
        path = self.write(tmp_path, f"{CORR_HEADER}\n1,2,3,4,yes\n")
        with pytest.raises(FileFormatError) as ei:
            load_correspondences(path)
        assert ei.value.line == 2

    def test_nonpositive_scale_rejected_with_line(self, tmp_path):
        path = self.write(tmp_path, f"{CORR_HEADER}\n1,2,1,0,3,4,-1,0\n")
        with pytest.raises(FileFormatError) as ei:
            load_correspondences(path)
        assert ei.value.line == 2

    # Row 2 (line 3) has scale -1; the row on line 5 has 7 fields.
    ROWS = ["1,2,1,0,3,4,1,0", "1,2,-1,0,3,4,1,0", "1,2,1,0,3,4,1,0", "1,2,1,0,3,4,1"]

    def test_bad_value_before_a_syntax_error_is_reported_first(self, tmp_path):
        path = self.write(tmp_path, "\n".join([CORR_HEADER, *self.ROWS, ""]))
        with pytest.raises(FileFormatError) as ei:
            load_correspondences(path)
        assert ei.value.line == 3
        assert str(ei.value) == "line 3: feature scale must be > 0, got -1.0"

    def test_syntax_error_before_a_bad_value_is_reported_first(self, tmp_path):
        rows = [self.ROWS[0], self.ROWS[3], self.ROWS[1]]
        path = self.write(tmp_path, "\n".join([CORR_HEADER, *rows, ""]))
        with pytest.raises(FileFormatError) as ei:
            load_correspondences(path)
        assert ei.value.line == 3
        assert "expected 8 fields" in str(ei.value)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("nan,2,1,0,3,4,1,0", "point coordinates must be finite, got (nan, 2.0)"),
            ("1,2,1,inf,3,4,1,0", "feature angle must be finite, got inf"),
            ("1,2,1,0,3,4,0,0", "feature scale must be > 0, got 0.0"),
            ("1,1e999,3,4", "point coordinates must be finite, got (1.0, inf)"),
        ],
    )
    def test_bad_value_reported_by_line_after_blank_lines(self, tmp_path, bad, message):
        good = "1,2,1,0,3,4,1,0" if bad.count(",") == 7 else "1,2,3,4"
        path = self.write(tmp_path, f"{CORR_HEADER}\n{good}\n\n{good}\n{bad}\n{good}\n")
        with pytest.raises(FileFormatError) as ei:
            load_correspondences(path)
        assert str(ei.value) == f"line 5: {message}"

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(FileFormatError):
            load_correspondences(path)


class TestResultDocument:
    def make_result(self):
        return EstimationResult(
            model=Homography.translation(3.0, 4.0),
            inlier_indices=np.array([0, 2, 5]),
            support=3,
            iterations_run=7,
            k_final=9,
            elapsed=0.123456789,
        )

    def test_fixed_key_order(self):
        buf = io.StringIO()
        write_result(buf, self.make_result(), HsoloConfig())
        lines = buf.getvalue().splitlines()
        assert lines[0] == RESULT_HEADER
        keys = [ln.split(":", 1)[0] for ln in lines[1:]]
        assert keys == ["model", "inliers", "support", "iterations", "elapsed_s", "config"]

    def test_model_entries_round_trip_through_repr(self):
        buf = io.StringIO()
        result = self.make_result()
        write_result(buf, result, HsoloConfig())
        model_line = [ln for ln in buf.getvalue().splitlines() if ln.startswith("model:")][0]
        entries = [float(tok) for tok in model_line.split(":", 1)[1].split()]
        np.testing.assert_array_equal(np.array(entries).reshape(3, 3), result.model.m)

    def test_timing_redacted_by_default(self):
        buf = io.StringIO()
        write_result(buf, self.make_result(), HsoloConfig())
        assert "elapsed_s: 0\n" in buf.getvalue()

    def test_timing_included_on_request(self):
        buf = io.StringIO()
        write_result(buf, self.make_result(), HsoloConfig(), include_timing=True)
        assert "elapsed_s: 0.123457\n" in buf.getvalue()

    def test_config_echo_lists_all_fields(self):
        buf = io.StringIO()
        write_result(buf, self.make_result(), HsoloConfig(seed=42))
        config_line = [ln for ln in buf.getvalue().splitlines() if ln.startswith("config:")][0]
        for name in ("epsilon=", "p=", "w_f=", "n_f=", "epsilon_r=", "seed=42"):
            assert name in config_line

    def test_save_result_writes_file(self, tmp_path):
        path = tmp_path / "result.txt"
        save_result(path, self.make_result(), HsoloConfig())
        text = path.read_text()
        assert text.startswith(RESULT_HEADER)
        assert "support: 3\n" in text
        assert "inliers: 0 2 5\n" in text
