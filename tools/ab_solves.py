"""In-process A/B timing of two ``hsolo`` source trees on the same pools.

Usage::

    python tools/ab_solves.py OLD_SRC NEW_SRC [--method hsolo|ransac] [--n 500] [--w 0.05]
                              [--pools 30] [--passes 3] [--cap 10000]

Copies ``OLD_SRC/hsolo`` and ``NEW_SRC/hsolo`` (two checkouts' ``src``)
into a temporary directory as the packages ``hsolo_a`` and ``hsolo_b`` (the
package uses relative imports only), imports both into this process, and
solves the same synthetic pools (noise 0.5 px, 0.05, 0.05 rad) with each,
alternating which one solves first. ``ransac`` runs capped at ``--cap``
draws, as perfbench's lowrate workload does; ``hsolo`` runs at its
defaults. Prints the per-solve time ratio NEW/OLD (p50 and quartiles), how
many solves NEW won, and how many solves gave identical results (model
bytes, inliers, ``iterations_run``, ``k_final``, history). Needs numpy
only.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BOUNDS = (640.0, 480.0)


def _load(src: Path, name: str, into: Path):
    shutil.copytree(src / "hsolo", into / name)
    return importlib.import_module(name)


def _fingerprint(result) -> bytes:
    history = [(h.iteration, h.support, h.k_after, h.model.m.tobytes()) for h in result.history]
    return repr((result.model.m.tobytes(), result.inlier_indices.tolist(), result.iterations_run,
                 result.k_final, history)).encode()


def _solver(pkg, method: str, cap: int):
    if method == "ransac":
        return lambda pool, seed: pkg.ransac_homography(pool, pool, None,
                                                        pkg.RansacConfig(max_iterations=cap, seed=seed))
    return lambda pool, seed: pkg.hsolo_estimate(pool, pkg.HsoloConfig(seed=seed))


def _timed(pkg, solve, pool, seed) -> tuple[float, bytes]:
    t0 = time.perf_counter()
    try:
        out = _fingerprint(solve(pool, seed))
    except pkg.NoModelFound:
        out = b"NoModelFound"
    return time.perf_counter() - t0, out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    ap.add_argument("--method", choices=("hsolo", "ransac"), default="ransac")
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--w", type=float, default=0.05)
    ap.add_argument("--pools", type=int, default=30)
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--cap", type=int, default=10_000)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        old = _load(args.old_src.resolve(), "hsolo_a", Path(tmp))
        new = _load(args.new_src.resolve(), "hsolo_b", Path(tmp))
        from hsolo_a.synthetic import SceneSpec, generate_scene, random_scene_truth

        pools = []
        for i in range(args.pools):
            rng = np.random.default_rng((args.n, round(args.w * 1000), i))
            spec = SceneSpec(truth=random_scene_truth(rng, BOUNDS), image_bounds=BOUNDS, n_total=args.n,
                             inlier_rate=args.w, pixel_noise_sigma=0.5, scale_noise_sigma=0.05,
                             angle_noise_sigma=0.05, seed=int(rng.integers(2**63)))
            pools.append(generate_scene(spec)[0])
        solve_old, solve_new = _solver(old, args.method, args.cap), _solver(new, args.method, args.cap)
        # pools come from the old tree; the new tree takes the same rows
        new_pools = [new.geometry.Pool(pool.rows) for pool in pools]
        ratios, identical, k = [], 0, 0
        for _ in range(args.passes):
            for i, (pool, new_pool) in enumerate(zip(pools, new_pools)):
                if k % 2 == 0:
                    t_old, r_old = _timed(old, solve_old, pool, i)
                    t_new, r_new = _timed(new, solve_new, new_pool, i)
                else:
                    t_new, r_new = _timed(new, solve_new, new_pool, i)
                    t_old, r_old = _timed(old, solve_old, pool, i)
                k += 1
                ratios.append(t_new / t_old)
                identical += r_old == r_new
        ratios = np.array(ratios)
        q1, p50, q3 = np.percentile(ratios, [25, 50, 75])
        print(f"{args.method} n={args.n} w={args.w}: {len(ratios)} solves, ratio new/old p50 {p50:.3f} "
              f"(q1 {q1:.3f}, q3 {q3:.3f}), new faster {int((ratios < 1).sum())}/{len(ratios)}, "
              f"identical {identical}/{len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
