"""Bit digest of the estimators' results over a fixed set of solves.

Usage::

    python tools/solve_digest.py SRC_DIR

Imports ``hsolo`` from ``SRC_DIR`` (a checkout's ``src``) and solves
fixed scenes with noise (pixel 0.5, scale 0.05, angle 0.05) for each n in
{200, 500, 2000} and w in {0.03, 0.05, 0.1, 0.2, 0.4}, four per cell. Prints one line
per group: a sha256 over every result of the group, then the group's name.
The groups are ``hsolo_estimate`` at seeds 0 and 1, the same at
``w_f=0.3, n_f=12`` and at ``w_f=0.3`` (inner budgets of 369 draws, which
at ``n_f=21`` some searches need past their first batch of 256), ``ransac_homography``
capped at 10,000 draws, ``seed_medians`` of each pool against itself, and
the gate medians and filtered sets of every seed at a gate of +inf and at
the default ``epsilon_r=20``. Two more groups solve
``hsolo_estimate`` at seeds 0 and 1 on scenes of the accuracy regime at
n=2000 (w in {0.2, 0.4}, noise 1.0, 0.1 and 0.05, four scenes per rate),
where a solve makes about eight consensus refits, so changes to which
seeds are refit show there. ``ransac_homography`` at its default cap runs
on the cells with n in {200, 500} and w >= 0.1, where budgets adapt and
batches grow past 256 draws. One group hashes ``solve_minimal_batch``'s
models and masks, with no pool: random, integer-grid (repeated points,
collinear triples, and coincident targets in every third sample) and
far-scaled (1e-150 and 1e+150, and the two mixed) samples, at batch sizes
1, 11 and 2048. The two gate groups call the
private kernel ``hsolo.estimator._seed_block`` on each pool against itself,
in blocks of ``_max_seed_block(n)`` seeds, with ``tools/cli_digest.py``'s two
extreme byproduct rows (an overflowing sketch and a singular one) inserted in
the middle of the pool; they hash each block's medians and each passing
seed's position and ``cut()``. At +inf every seed passes, and the two extreme
seeds' errors are all +inf, so their sets are pure tie order, which no solve
and no command line reaches. At ``epsilon_r=20`` the gate's matrix product
and exact count decide which seeds get exact medians. A result's fingerprint holds the model's
bytes, the inlier indices, the support, ``iterations_run``, ``k_final`` and
the history; a solve that raises ``NoModelFound`` digests as that name. Two
checkouts give the same lines exactly when these results agree bit for bit::

    diff <(python tools/solve_digest.py OLD/src) <(python tools/solve_digest.py src)

It needs numpy only and runs in well under a minute on a 2-core box.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
from pathlib import Path

import numpy as np

SIZES = (200, 500, 2000)
RATES = (0.03, 0.05, 0.1, 0.2, 0.4)
NOISE = (0.5, 0.05, 0.05)
# the accuracy regime: many seeds bring new inliers, so most reached seeds are refit
WIDE_RATES = (0.2, 0.4)
WIDE_NOISE = (1.0, 0.1, 0.05)
BOUNDS = (640.0, 480.0)
RANSAC_DRAWS = 10_000
# the cells where uncapped RANSAC runs: its budget adapts within seconds
UNCAPPED_SIZES, UNCAPPED_RATES = (200, 500), (0.1, 0.2, 0.4)
MINIMAL_SIZES = (1, 11, 2048)
SCENES_PER_CELL = 4
N_F = 21
GATE = 20.0  # HsoloConfig's default epsilon_r
# tools/cli_digest.py's extreme.csv rows: a 1e-200 -> 1e+200 scale ratio
# (the sketch overflows) and a 1/200 one (the sketch is singular)
EXTREME_ROWS = (
    (100.0, 120.0, 1e-200, 0.3, 300.0, 200.0, 1e200, -0.2),
    (100.0, 120.0, 40.0, 0.3, 300.0, 200.0, 0.2, -0.2),
)


def _scenes(sizes=SIZES, rates=RATES, noise=NOISE):
    """``SCENES_PER_CELL`` (label, pool) per grid cell, each from its own fixed seed."""
    from hsolo.synthetic import SceneSpec, generate_scene, random_scene_truth

    for n, w, i in itertools.product(sizes, rates, range(SCENES_PER_CELL)):
        rng = np.random.default_rng((n, round(w * 100), i))
        truth = random_scene_truth(rng, BOUNDS)
        spec = SceneSpec(
            truth=truth, image_bounds=BOUNDS, n_total=n, inlier_rate=w,
            pixel_noise_sigma=noise[0], scale_noise_sigma=noise[1], angle_noise_sigma=noise[2],
            seed=int(rng.integers(2**63)),
        )
        yield f"n={n} w={w} scene={i}", generate_scene(spec)[0]


def _minimal_batches():
    """(label, src, dst) batches of (c, 4, 2) samples for each c in ``MINIMAL_SIZES``, from fixed seeds."""
    for c in MINIMAL_SIZES:
        rng = np.random.default_rng((c, 4))
        src, dst = rng.uniform(-500.0, 500.0, size=(2, c, 4, 2))
        yield f"random c={c}", src, dst
        # a 5x5 grid: repeated points and collinear triples are common
        grid_src, grid_dst = rng.integers(-2, 3, size=(2, c, 4, 2)).astype(float)
        grid_dst[::3] = grid_dst[::3, :1]  # four coincident targets
        yield f"grid c={c}", grid_src, grid_dst
        for a, b in ((1e-150, 1e-150), (1e150, 1e150), (1e-150, 1e150), (1e150, 1e-150)):
            yield f"scaled {a:g} {b:g} c={c}", src * a, dst * b


def _fingerprint(result) -> bytes:
    history = [(h.iteration, h.support, h.k_after, h.model.m.tobytes()) for h in result.history]
    fields = (
        result.model.m.tobytes(), result.inlier_indices.tolist(), result.support,
        result.iterations_run, result.k_final, history,
    )
    return repr(fields).encode()


def _gate_cuts(pool, epsilon_r: float, digest) -> None:
    """Feed each block's gate medians and each passing seed's ``(position, filtered set)``, extreme rows inserted, to ``digest``."""
    from hsolo.estimator import _max_seed_block, _seed_block
    from hsolo.geometry import Pool, pool_arrays

    mid = len(pool) // 2
    seeds = Pool(np.vstack([pool.rows[:mid], EXTREME_ROWS, pool.rows[mid:]]))
    src, dst = pool_arrays(seeds)
    rows = _max_seed_block(len(seeds))
    for i in range(0, len(seeds), rows):
        medians, passing = _seed_block(seeds[i : i + rows], src, dst, N_F, epsilon_r)
        digest.update(medians.tobytes())
        for j, cut in passing:
            digest.update((i + j).to_bytes(8, "little") + cut().tobytes())


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "hsolo" / "__init__.py").is_file():
        print(f"no hsolo package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from hsolo import HsoloConfig, NoModelFound, RansacConfig, hsolo_estimate, ransac_homography
    from hsolo.estimator import seed_medians
    from hsolo.solvers import solve_minimal_batch

    solvers = {
        "hsolo seed=0": lambda pool: hsolo_estimate(pool, HsoloConfig(seed=0)),
        "hsolo seed=1": lambda pool: hsolo_estimate(pool, HsoloConfig(seed=1)),
        # inner budgets of 369 draws; at n_f=21 some searches outlast their first batch of 256
        "hsolo w_f=0.3 n_f=12 seed=0": lambda pool: hsolo_estimate(pool, HsoloConfig(w_f=0.3, n_f=12, seed=0)),
        "hsolo w_f=0.3 n_f=12 seed=1": lambda pool: hsolo_estimate(pool, HsoloConfig(w_f=0.3, n_f=12, seed=1)),
        "hsolo w_f=0.3 seed=0": lambda pool: hsolo_estimate(pool, HsoloConfig(w_f=0.3, seed=0)),
        "hsolo w_f=0.3 seed=1": lambda pool: hsolo_estimate(pool, HsoloConfig(w_f=0.3, seed=1)),
        "ransac max_iterations=10000": lambda pool: ransac_homography(
            pool, pool, None, RansacConfig(max_iterations=RANSAC_DRAWS, seed=0)
        ),
    }
    wide = {f"hsolo n=2000 noise=1.0/0.1/0.05 seed={seed}": solvers[f"hsolo seed={seed}"] for seed in (0, 1)}
    uncapped = {
        "ransac default cap, n in 200/500, w >= 0.1": lambda pool: ransac_homography(
            pool, pool, None, RansacConfig(seed=0)
        )
    }
    minimal = "solve_minimal_batch c in 1/11/2048"
    gates = {math.inf: "seed_block cuts n_f=21 epsilon_r=inf, extreme rows",
             GATE: f"seed_block cuts n_f=21 epsilon_r={GATE:g}, extreme rows"}
    digests = {
        name: hashlib.sha256() for name in [*solvers, "seed_medians n_f=21", *gates.values(), *wide, *uncapped, minimal]
    }

    def digest_solves(groups, cell, pool):
        for name, solve in groups.items():
            try:
                data = _fingerprint(solve(pool))
            except NoModelFound:
                data = b"NoModelFound"
            digests[name].update(cell + data)

    for label, pool in _scenes():
        cell = label.encode() + b"\n"
        digest_solves(solvers, cell, pool)
        digests["seed_medians n_f=21"].update(cell + seed_medians(pool, pool, N_F).tobytes())
        for epsilon_r, name in gates.items():
            digests[name].update(cell)
            _gate_cuts(pool, epsilon_r, digests[name])
    for label, pool in _scenes((2000,), WIDE_RATES, WIDE_NOISE):
        digest_solves(wide, label.encode() + b"\n", pool)
    for label, pool in _scenes(UNCAPPED_SIZES, UNCAPPED_RATES):
        digest_solves(uncapped, label.encode() + b"\n", pool)
    for label, src, dst in _minimal_batches():
        with np.errstate(all="ignore"):
            models, valid = solve_minimal_batch(src, dst)
        digests[minimal].update(label.encode() + b"\n" + models.tobytes() + valid.tobytes())
    for name, digest in digests.items():
        print(f"{digest.hexdigest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
