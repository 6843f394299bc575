"""The one homography validity test against the det/norm test it replaced.

``geometry.valid_homography`` decides with elementwise arithmetic on the nine
entries what ``Homography`` used to decide with ``np.linalg.det`` and
``np.linalg.norm``. That earlier test is kept below as the reference. The two
compute the determinant differently, and either one's rounding error grows
with ``fro**3``, not with the determinant (measured below 5e-17 * fro**3 over
200,000 near-cut draws). So they may disagree only where the reference's
``|det|`` lies within ``BAND * fro**3`` of the cut at
``SINGULARITY_RTOL * fro**3``, a thousandth of the cut's own size.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hsolo import AffineFeature, Correspondence, Homography, Point2, SingularMatrix
from hsolo.estimator import seed_medians
from hsolo.geometry import (
    SINGULARITY_RTOL,
    _canonicalize,
    as_pool,
    pool_arrays,
    valid_homography,
)

from conftest import _reference_filter, gate_block, random_points, scalar_seed_errors

BAND = 1e-15

FAST = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def reference_valid(m: np.ndarray) -> bool:
    """``Homography``'s earlier test of a canonical matrix: ``|det| <= 1e-12 * fro**3`` rejects."""
    fro = float(np.linalg.norm(m))
    with np.errstate(divide="ignore"):  # numpy warns on some exactly singular matrices
        det = float(np.linalg.det(m))
    return not abs(det) <= SINGULARITY_RTOL * fro**3


entry = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def matrices(draw):
    """3x3 matrices, about half of them within a few decades of the singularity cut."""
    rows = np.array(draw(st.lists(entry, min_size=9, max_size=9))).reshape(3, 3)
    if draw(st.booleans()):
        # third row a combination of the first two, nudged off that plane
        a, b = draw(entry), draw(entry)
        nudge = 10.0 ** draw(st.floats(min_value=-16.0, max_value=-8.0))
        rows[2] = a * rows[0] + b * rows[1] + nudge * rows[2]
    if draw(st.booleans()):
        rows = rows.T
    return rows


@FAST
@given(ms=st.lists(matrices(), min_size=1, max_size=8))
def test_scalar_and_batch_decisions_agree_with_the_reference(ms):
    stack = np.array(ms)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = valid_homography(stack.transpose(1, 2, 0))
    for m, in_batch in zip(stack, batch.tolist()):
        assert valid_homography(m.tolist()) == in_batch
        try:
            canonical = _canonicalize(m)
        except ValueError:  # all entries zero, or too small to square
            continue
        decision = valid_homography(canonical.tolist())
        if decision != reference_valid(canonical):
            fro = float(np.linalg.norm(canonical))
            with np.errstate(divide="ignore"):
                det = float(np.linalg.det(canonical))
            assert abs(abs(det) - SINGULARITY_RTOL * fro**3) <= BAND * fro**3
        try:
            Homography(m)
        except SingularMatrix:
            assert not decision
        else:
            assert decision


def test_non_finite_entries_fail():
    for bad in (math.inf, -math.inf, math.nan):
        m = np.eye(3)
        m[1, 2] = bad
        assert not valid_homography(m.tolist())
        with np.errstate(invalid="ignore"):
            assert not valid_homography(m[:, :, None])[0]


_POOL = as_pool(
    [
        Correspondence(AffineFeature(p, 1.0, 0.0), AffineFeature(Point2(p.u + 3.0, p.v - 2.0), 1.0, 0.0))
        for p in random_points(np.random.default_rng(4), 40)
    ]
)
_SRC, _DST = pool_arrays(_POOL)

coordinate = st.floats(min_value=-1e13, max_value=1e13, allow_nan=False)
angle = st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True)


@st.composite
def sketch_seeds(draw):
    """Seeds with scale ratios 1e-6..1e6 and translations up to 1e13 px.

    About half are placed near the singularity cut: ratio r with translation
    t = (1e12 * r**2) ** (1/3) gives r**2 = 1e-12 * t**3, about the cut's
    ``r**2 = 1e-12 * fro**3`` when t dominates the Frobenius norm.
    """
    s1 = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    ratio = 10.0 ** draw(st.floats(min_value=-6.0, max_value=6.0))
    u1, v1, u2, v2 = (draw(coordinate) for _ in range(4))
    if draw(st.booleans()):
        t = (1e12 * ratio**2) ** (1.0 / 3.0) * 10.0 ** draw(st.floats(min_value=-0.5, max_value=0.5))
        u1, v1, u2, v2 = u1 * 1e-13, v1 * 1e-13, t, v2 * 1e-13
    return Correspondence(
        AffineFeature(Point2(u1, v1), s1, draw(angle)),
        AffineFeature(Point2(u2, v2), s1 * ratio, draw(angle)),
    )


@FAST
@given(seeds=st.lists(sketch_seeds(), min_size=1, max_size=8))
def test_seed_block_rows_follow_single_match_homography(seeds):
    # a gate of +inf hands every seed its filtered set
    _, medians, passing = gate_block(as_pool(seeds), _SRC, _DST, 21, math.inf)
    filtered = {i: cut() for i, cut in passing}
    np.testing.assert_array_equal(seed_medians(seeds, _POOL, 21), medians)
    for i, c in enumerate(seeds):
        idx, _, median = _reference_filter(scalar_seed_errors(c, _SRC, _DST), 21)
        assert filtered[i].tolist() == idx.tolist()
        assert medians[i] == median
