"""Bit digest of the estimators' results over a fixed set of solves.

Usage::

    python tools/solve_digest.py SRC_DIR

Imports ``hsolo`` from ``SRC_DIR`` (a checkout's ``src``) and solves one
fixed scenes with noise (pixel 0.5, scale 0.05, angle 0.05) for each n in
{200, 500, 2000} and w in {0.03, 0.05, 0.1, 0.2, 0.4}, four per cell. Prints one line
per group: a sha256 over every result of the group, then the group's name.
The groups are ``hsolo_estimate`` at seeds 0 and 1, ``ransac_homography``
capped at 10,000 draws, and ``seed_medians`` of each pool against itself. A
result's fingerprint holds the model's bytes, the inlier indices, the
support, ``iterations_run``, ``k_final`` and the history; a solve that raises
``NoModelFound`` digests as that name. Two checkouts give the same lines
exactly when these results agree bit for bit::

    diff <(python tools/solve_digest.py OLD/src) <(python tools/solve_digest.py src)

It needs numpy only and runs in well under a minute on a 2-core box.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

SIZES = (200, 500, 2000)
RATES = (0.03, 0.05, 0.1, 0.2, 0.4)
NOISE = (0.5, 0.05, 0.05)
BOUNDS = (640.0, 480.0)
RANSAC_DRAWS = 10_000
SCENES_PER_CELL = 4


def _scenes():
    """``SCENES_PER_CELL`` (label, pool) per grid cell, each from its own fixed seed."""
    from hsolo.synthetic import SceneSpec, generate_scene, random_scene_truth

    for n, w, i in itertools.product(SIZES, RATES, range(SCENES_PER_CELL)):
        rng = np.random.default_rng((n, round(w * 100), i))
        truth = random_scene_truth(rng, BOUNDS)
        spec = SceneSpec(
            truth=truth, image_bounds=BOUNDS, n_total=n, inlier_rate=w,
            pixel_noise_sigma=NOISE[0], scale_noise_sigma=NOISE[1], angle_noise_sigma=NOISE[2],
            seed=int(rng.integers(2**63)),
        )
        yield f"n={n} w={w} scene={i}", generate_scene(spec)[0]


def _fingerprint(result) -> bytes:
    history = [(h.iteration, h.support, h.k_after, h.model.m.tobytes()) for h in result.history]
    fields = (
        result.model.m.tobytes(), result.inlier_indices.tolist(), result.support,
        result.iterations_run, result.k_final, history,
    )
    return repr(fields).encode()


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

    solvers = {
        "hsolo seed=0": lambda pool: hsolo_estimate(pool, HsoloConfig(seed=0)),
        "hsolo seed=1": lambda pool: hsolo_estimate(pool, HsoloConfig(seed=1)),
        "ransac max_iterations=10000": lambda pool: ransac_homography(
            pool, pool, None, RansacConfig(max_iterations=RANSAC_DRAWS, seed=0)
        ),
    }
    digests = {name: hashlib.sha256() for name in [*solvers, "seed_medians n_f=21"]}
    for label, pool in _scenes():
        cell = label.encode() + b"\n"
        for name, solve in solvers.items():
            try:
                data = _fingerprint(solve(pool))
            except NoModelFound:
                data = b"NoModelFound"
            digests[name].update(cell + data)
        digests["seed_medians n_f=21"].update(cell + seed_medians(pool, pool, 21).tobytes())
    for name, digest in digests.items():
        print(f"{digest.hexdigest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
