"""The benchmark tracer's view of the package must stay valid.

``perfbench/tracer.py`` wraps package functions at the module attributes
their callers look them up through (``TARGETS``). A cleanup that drops one of
those imports would break traced benchmark runs with an ``AttributeError``;
this test catches it in the unit suite instead. The benchmark also compares
a loaded pool with the generated one and splits it into point arrays; the
second test runs those steps as it does. The last test runs the benchmark's
own self-test, which runs every workload's first operations untraced and
traced and requires the same results.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_targets() -> dict:
    name = "_perfbench_tracer_under_test"
    spec = importlib.util.spec_from_file_location(name, TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module.TARGETS


def test_every_traced_attribute_resolves():
    targets = _tracer_targets()
    assert targets
    missing = [
        f"{mod}.{attr}"
        for mod, attrs in targets.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert not missing, f"perfbench tracer targets missing from the package: {missing}"


def test_file_round_trip_as_the_benchmark_does_it(tmp_path):
    """``perfbench/workloads.file_scenes``: generate, save, load, compare, split."""
    from hsolo import fileio, geometry, synthetic

    truth = synthetic.random_scene_truth(np.random.default_rng(11), (640.0, 480.0))
    spec = synthetic.SceneSpec(
        truth=truth,
        image_bounds=(640.0, 480.0),
        n_total=120,
        inlier_rate=0.05,
        pixel_noise_sigma=0.5,
        scale_noise_sigma=0.05,
        angle_noise_sigma=0.05,
        seed=12,
    )
    pool, mask = synthetic.generate_scene(spec)
    assert len(pool) == 120
    path = str(tmp_path / "pool0.csv")
    fileio.save_correspondences(path, pool, mask)
    loaded = fileio.load_correspondences(path)
    assert (loaded.correspondences != pool) is False
    assert np.array_equal(loaded.inlier_mask, mask)
    src, dst = geometry.pool_arrays(loaded.correspondences)
    want_src, want_dst = geometry.pool_arrays(pool)
    assert src.shape == dst.shape == (120, 2)
    np.testing.assert_array_equal(src, want_src)
    np.testing.assert_array_equal(dst, want_dst)


def test_benchmark_selftest_passes():
    """``python3 perfbench/selftest.py`` from the checkout root, as the benchmark's docs run it."""
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
