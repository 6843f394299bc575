"""Property tests of the invariants the README promises.

Hypothesis draws the inputs: arbitrary valid pool rows for the file round
trip and the command line, small synthetic scenes for the estimators and the
polish. Example counts are kept small so the module runs in a few seconds.
The covariance tests (moving both images) run on fixed-seed scenes.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hsolo import (
    Homography,
    HsoloConfig,
    InfeasibleSpec,
    NoModelFound,
    RansacConfig,
    SceneSpec,
    SceneSweep,
    generate_scene,
    hsolo_estimate,
    load_correspondences,
    random_scene_truth,
    ransac_homography,
    refine_model,
    save_correspondences,
)
from hsolo.cli import main
from hsolo.fileio import CORR_HEADER
from hsolo.geometry import Pool, pool_arrays, transfer_errors

FAST = settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
row = st.tuples(finite, finite, positive, finite, finite, finite, positive, finite)


@FAST
@given(rows=st.lists(row, max_size=20), flags=st.booleans())
def test_file_round_trip_gives_an_equal_pool(rows, flags):
    pool = Pool(np.array(rows, dtype=float).reshape(-1, 8))
    mask = np.arange(len(pool)) % 2 == 0 if flags else None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pool.csv"
        save_correspondences(path, pool, mask)
        loaded = load_correspondences(path)
    assert loaded.correspondences == pool
    assert loaded.has_byproducts  # a header-only file is not point-only either
    if flags:
        np.testing.assert_array_equal(loaded.inlier_mask, mask)
    else:
        assert loaded.inlier_mask is None


@st.composite
def scene_specs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    noisy = draw(st.booleans())
    return SceneSpec(
        truth=random_scene_truth(np.random.default_rng(seed), (640.0, 480.0)),
        image_bounds=(640.0, 480.0),
        n_total=draw(st.integers(8, 60)),
        inlier_rate=draw(st.sampled_from([0.1, 0.3, 0.6, 1.0])),
        pixel_noise_sigma=0.5 * noisy,
        scale_noise_sigma=0.05 * noisy,
        angle_noise_sigma=0.05 * noisy,
        seed=seed,
    )


def _generate(spec):
    try:
        return generate_scene(spec)
    except InfeasibleSpec:
        assume(False)


@st.composite
def scenes(draw):
    pool, _ = _generate(draw(scene_specs()))
    return pool, draw(st.integers(0, 2**31 - 1))


def _solve(method, pool, seed):
    """The method's result, or None when it raises NoModelFound (and nothing else)."""
    try:
        if method == "hsolo":
            return hsolo_estimate(pool, HsoloConfig(seed=seed))
        config = RansacConfig(max_iterations=300, seed=seed)
        return ransac_homography(pool, pool, min(1.0, 4 / len(pool)), config)
    except NoModelFound:
        return None


def _fingerprint(result):
    if result is None:
        return None
    history = [(h.iteration, h.support, h.k_after, h.model.m.tobytes()) for h in result.history]
    return (
        result.model.m.tobytes(),
        result.inlier_indices.tobytes(),
        result.support,
        result.iterations_run,
        result.k_final,
        history,
    )


@FAST
@given(scene=scenes(), method=st.sampled_from(["hsolo", "ransac"]))
def test_estimators_keep_their_contract(scene, method):
    pool, seed = scene
    result = _solve(method, pool, seed)
    if result is not None:
        idx = result.inlier_indices
        assert result.support == len(idx)
        assert np.all(np.diff(idx) > 0) and 0 <= idx[0] and idx[-1] < len(pool)
        src, dst = pool_arrays(pool)
        assert np.all(transfer_errors(result.model.m, src[idx], dst[idx]) <= 4.0)
    # a list of the same rows is the same input
    assert _fingerprint(_solve(method, list(pool), seed)) == _fingerprint(result)


@FAST
@given(scene=scenes())
def test_degenerate_pools_find_no_model(scene):
    pool, seed = scene
    identical = pool[np.zeros(len(pool), dtype=np.intp)]
    rows = pool.rows.copy()
    rows[:, 1] = 0.5 * rows[:, 0] + 10.0  # every source on one line
    for degenerate in (identical, Pool(rows)):
        for method in ("hsolo", "ransac"):
            assert _solve(method, degenerate, seed) is None


@FAST
@given(
    spec=scene_specs(),
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from([1e-9, 1e-6, 1e-3, 1e-1]),
)
def test_refinement_never_raises_cost(spec, seed, size):
    pool, mask = _generate(spec)
    assume(mask.sum() >= 4)
    # every entry of the truth scaled by its own factor in 1 +- size
    factors = 1.0 + size * np.random.default_rng(seed).uniform(-1.0, 1.0, size=(3, 3))
    ref = refine_model(Homography(spec.truth.m * factors), pool[mask])
    assert ref.final_cost <= ref.initial_cost + 1e-12


coordinate = st.floats(-1e200, 1e200)
scale = st.floats(1e-200, 1e200)
angle = st.floats(-10.0, 10.0)
full_row = st.tuples(coordinate, coordinate, scale, angle, coordinate, coordinate, scale, angle)
point_row = st.tuples(coordinate, coordinate, coordinate, coordinate)


@FAST
@given(
    rows=st.one_of(st.lists(full_row, max_size=12), st.lists(point_row, max_size=12)),
    flags=st.none() | st.lists(st.booleans(), min_size=12, max_size=12),
)
def test_a_file_that_loads_never_ends_in_a_traceback(rows, flags):
    lines = [",".join(repr(float(x)) for x in row) for row in rows]
    if flags is not None:
        lines = [f"{line},{int(flag)}" for line, flag in zip(lines, flags)]
    byproducts = bool(rows) and len(rows[0]) == 8
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pool.csv"
        path.write_text(CORR_HEADER + "\n" + "".join(line + "\n" for line in lines))
        load_correspondences(path)  # the file is valid input
        codes = {}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for name, argv in [
                ("ransac", ["solve", str(path), "--method", "ransac"]),
                ("hsolo", ["solve", str(path)]),
                ("calibrate", ["calibrate-epsilon-r", str(path)]),
            ]:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    codes[name] = main(argv)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert codes["ransac"] in ((0, 1) if len(rows) >= 4 else (2,))
    assert codes["hsolo"] in ((0, 1) if byproducts and len(rows) >= 5 else (2,))
    assert codes["calibrate"] in (0, 2)


def _value_error(build):
    """The message of the ``ValueError`` that ``build()`` raises, or None."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


bound = st.floats(1.0, 4000.0) | st.sampled_from([0.0, -1.0, math.nan, math.inf])
rate = st.floats(0.0, 1.0) | st.sampled_from([-0.1, 1.5, math.nan])
sigma = st.floats(0.0, 5.0) | st.sampled_from([-1.0, math.nan, math.inf])


@FAST
@given(
    bounds=st.tuples(bound, bound),
    n_total=st.integers(0, 20),
    rates=st.lists(rate, max_size=3),
    sigmas=st.tuples(sigma, sigma, sigma),
)
def test_a_sweep_rejects_exactly_the_recipes_its_scenes_reject(bounds, n_total, rates, sigmas):
    noise = dict(zip(("pixel_noise_sigma", "scale_noise_sigma", "angle_noise_sigma"), sigmas))
    scene_errors = [
        _value_error(lambda: SceneSpec(Homography.identity(), bounds, n_total, w, **noise))
        for w in rates
    ]
    expected = next((e for e in scene_errors if e is not None), None)
    assert _value_error(lambda: SceneSweep(bounds, n_total, tuple(rates), **noise)) == expected


_BOUNDS = (640.0, 480.0)


@pytest.fixture(scope="module")
def covariance_pools():
    """12 scenes at n=300, w=0.2 with the lowrate benchmark's noise, on fixed seeds."""
    pools = []
    for seed in range(12):
        spec = SceneSpec(
            truth=random_scene_truth(np.random.default_rng(seed), _BOUNDS),
            image_bounds=_BOUNDS,
            n_total=300,
            inlier_rate=0.2,
            pixel_noise_sigma=0.5,
            scale_noise_sigma=0.05,
            angle_noise_sigma=0.05,
            seed=seed,
        )
        pools.append(generate_scene(spec)[0])
    return pools


def _inlier_sets(pool, seed, s=1.0):
    """Inlier indices of both estimators, with epsilon and epsilon_r scaled by s."""
    hsolo = hsolo_estimate(pool, HsoloConfig(epsilon=4.0 * s, epsilon_r=20.0 * s, seed=seed))
    ransac = ransac_homography(pool, pool, None, RansacConfig(epsilon=4.0 * s, seed=seed))
    return hsolo.inlier_indices.tolist(), ransac.inlier_indices.tolist()


def _moved(pool, scale=1.0, offset=(0.0, 0.0)):
    """Both images scaled by ``scale`` (points and feature scales), then shifted by ``offset``."""
    rows = pool.rows.copy()
    rows[:, [0, 1, 2, 4, 5, 6]] *= scale
    rows[:, [0, 4]] += offset[0]
    rows[:, [1, 5]] += offset[1]
    return Pool(rows)


@pytest.mark.parametrize("s", [0.25, 2.0, 8.0])
def test_scaling_both_images_keeps_the_inlier_sets(covariance_pools, s):
    """A power-of-two scale of both images, thresholds scaled alike, changes no inlier.

    Such a scale is exact in floating point, and both estimators use only
    scale ratios, Hartley-normalized points and errors relative to epsilon.
    """
    for k, pool in enumerate(covariance_pools):
        assert _inlier_sets(_moved(pool, scale=s), k, s) == _inlier_sets(pool, k)


@pytest.mark.parametrize("offset", [(3.0, -7.0), (100.0, 50.0)])
def test_translating_both_images_keeps_the_inlier_sets(covariance_pools, offset):
    """The same small shift of both images changes no inlier.

    Offsets stay in the hundreds of pixels: far translations meet the
    validity test's known translation cut (ROADMAP item 6), which calls a
    well-conditioned map with a translation in the tens of thousands of
    pixels singular.
    """
    for k, pool in enumerate(covariance_pools):
        assert _inlier_sets(_moved(pool, offset=offset), k) == _inlier_sets(pool, k)
