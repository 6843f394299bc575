"""Command-line interface.

Subcommands: ``solve`` a correspondence file, ``generate`` a synthetic scene
file, ``bench`` a Monte-Carlo comparison, ``theory`` the iteration-count
curves, and ``calibrate-epsilon-r`` to suggest a gate threshold from data.
All machine-readable output is deterministic for a fixed seed; wall-clock
fields are written as 0 unless ``--timing`` is given.

Exit codes: 0 success, 1 estimation failure, 2 input error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import theory_curves
from .bench import (
    METHODS,
    SceneSweep,
    format_records,
    format_summary,
    run_benchmark,
    seed_int,
)
from .estimator import HsoloConfig, estimate_epsilon_r, hsolo_estimate, seed_medians
from .exceptions import HsoloError, NoModelFound
from .fileio import load_correspondences, save_correspondences, save_result, write_result
from .geometry import Homography
from .robust import DEFAULT_MAX_ITERATIONS, RansacConfig, ransac_homography
from .synthetic import SceneSpec, generate_scene, random_scene_truth


def _add_estimator_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("estimator parameters")
    cfg = HsoloConfig()
    group.add_argument("--epsilon", type=float, default=cfg.epsilon, help="inlier threshold in pixels")
    group.add_argument("--p", type=float, default=cfg.p, help="success probability target")
    group.add_argument("--wf", type=float, default=cfg.w_f, help="assumed filtered-set inlier rate")
    group.add_argument("--nf", type=int, default=cfg.n_f, help="filtered-set size")
    group.add_argument(
        "--epsilon-r", type=float, default=cfg.epsilon_r, help="median-error gate threshold in pixels"
    )
    group.add_argument(
        "--inlier-scaling",
        type=float,
        default=cfg.inlier_scaling,
        help="factor applied to the observed inlier rate for the outer budget",
    )
    group.add_argument("--seed", type=int, default=0, help="RNG seed")
    group.add_argument(
        "--max-iterations", type=int, default=DEFAULT_MAX_ITERATIONS, help="iteration cap"
    )


def _configs(args) -> dict:
    # HsoloConfig first: RansacConfig checks a subset of its values by the same tests,
    # so a bad flag fails there, with the same message, whichever method runs
    hsolo = HsoloConfig(
        epsilon=args.epsilon,
        p=args.p,
        w_f=args.wf,
        n_f=args.nf,
        epsilon_r=args.epsilon_r,
        inlier_scaling=args.inlier_scaling,
        max_outer_iterations=args.max_iterations,
        seed=args.seed,
    )
    ransac = RansacConfig(
        epsilon=args.epsilon,
        p=args.p,
        max_iterations=args.max_iterations,
        seed=args.seed,
    )
    return {"hsolo": hsolo, "ransac": ransac}


class _SceneFlag(argparse.Action):
    """Stores a synthetic-scene flag's value and notes the flag in ``scene_flags``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.scene_flags += (self.option_strings[0],)


def _add_scene_flags(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(scene_flags=())
    flag = dict(type=float, action=_SceneFlag)
    parser.add_argument("--width", default=640.0, **flag)
    parser.add_argument("--height", default=480.0, **flag)
    parser.add_argument("--pixel-noise", default=0.0, help="target noise sigma (px)", **flag)
    parser.add_argument("--scale-noise", default=0.0, help="byproduct scale noise sigma (log units)", **flag)
    parser.add_argument("--angle-noise", default=0.0, help="byproduct angle noise sigma (radians)", **flag)


def _scene_fields(args) -> dict:
    """The scene recipe fields that ``SceneSpec`` and ``SceneSweep`` share."""
    return dict(
        image_bounds=(args.width, args.height), pixel_noise_sigma=args.pixel_noise,
        scale_noise_sigma=args.scale_noise, angle_noise_sigma=args.angle_noise,
    )


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(f) for f in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated list of numbers, got {text!r}") from None


def _cmd_solve(args) -> int:
    loaded = load_correspondences(args.input)
    seeded = args.method == "hsolo"
    pool = loaded.byproduct_pool() if seeded else loaded.correspondences
    config = _configs(args)[args.method]
    result = hsolo_estimate(pool, config) if seeded else ransac_homography(pool, pool, None, config)
    if args.output:
        save_result(args.output, result, config, include_timing=args.timing)
    else:
        write_result(sys.stdout, result, config, include_timing=args.timing)
    return 0


def _cmd_generate(args) -> int:
    truth_ss, scene_ss = np.random.SeedSequence(args.seed).spawn(2)
    if args.truth:
        entries = _parse_float_list(args.truth, "--truth")
        if len(entries) != 9:
            raise ValueError(f"--truth expects 9 entries, got {len(entries)}")
        truth = Homography(np.array(entries).reshape(3, 3))
    else:
        truth = random_scene_truth(np.random.default_rng(truth_ss), (args.width, args.height))
    seed = seed_int(scene_ss)
    spec = SceneSpec(truth=truth, n_total=args.n, inlier_rate=args.w, seed=seed, **_scene_fields(args))
    pool, mask = generate_scene(spec)
    save_correspondences(args.output, pool, mask)
    return 0


def _cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    configs = _configs(args)
    if args.input:
        if args.scene_flags:
            raise ValueError(f"{args.scene_flags[0]} sets synthetic scenes; it does not apply to --input")
        source = load_correspondences(args.input)
    else:
        source = SceneSweep(
            n_total=args.n, inlier_rates=_parse_float_list(args.w, "--w"), **_scene_fields(args)
        )
    result = run_benchmark(
        source,
        methods,
        args.trials,
        configs["hsolo"],
        configs["ransac"],
        seed=args.seed,
        workers=args.workers,
    )
    sys.stdout.write(format_summary(result, include_timing=args.timing))
    if args.records_out:
        with open(args.records_out, "w") as fh:
            fh.write(format_records(result.records, include_timing=args.timing))
    return 0


def _cmd_theory(args) -> int:
    w_values = _parse_float_list(args.w, "--w")
    n_values = _parse_float_list(args.n_values, "--n-values")
    if not all(n.is_integer() for n in n_values):
        raise ValueError(f"--n-values expects whole sample sizes, got {args.n_values!r}")
    n_values = tuple(int(n) for n in n_values)
    rows = theory_curves(w_values, n_values, args.p, args.nf, args.wf)
    sys.stdout.write("w\tn\tk_ransac\tk_hsolo_total\tspeedup\n")
    for row in rows:
        sys.stdout.write(
            f"{row.w!r}\t{row.n}\t{row.k_ransac}\t{row.k_hsolo_total!r}\t{row.speedup!r}\n"
        )
    return 0


def _cmd_calibrate(args) -> int:
    loaded = load_correspondences(args.input)
    pool = loaded.byproduct_pool()
    n_f = HsoloConfig(n_f=args.nf).n_f  # the estimators' own n_f rule
    # calibrate on the gated quantity itself: each seed's filtered-median
    # error; with ground truth available, use the inlier seeds so the fence
    # marks where seeds stop looking like inliers
    if loaded.inlier_mask is not None:
        seeds = pool[loaded.inlier_mask]
        seed_set = "flagged-inliers"
    else:
        seeds = pool
        seed_set = "all"
    medians = seed_medians(seeds, pool, n_f)
    finite = medians[np.isfinite(medians)]
    # finite <= seeds <= pool rows: estimate_epsilon_r's ">= 4" test covers all three;
    # a fence the estimators' own epsilon_r rule rejects is no suggestion
    suggested = HsoloConfig(epsilon_r=estimate_epsilon_r(finite)).epsilon_r
    q1, q3 = np.percentile(finite, [25.0, 75.0])
    sys.stdout.write(f"n_seeds: {len(finite)}\n")
    sys.stdout.write(f"seed_set: {seed_set}\n")
    sys.stdout.write(f"q1: {float(q1)!r}\n")
    sys.stdout.write(f"q3: {float(q3)!r}\n")
    sys.stdout.write(f"suggested_epsilon_r: {suggested!r}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsolo",
        description="Homography estimation from scale/rotation-aware correspondences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="estimate a homography from a correspondence file")
    p_solve.add_argument("input", help="correspondence file (hsolo-corr v1)")
    p_solve.add_argument("--method", choices=METHODS, default="hsolo")
    p_solve.add_argument("-o", "--output", help="write the result document here instead of stdout")
    p_solve.add_argument("--timing", action="store_true", help="include real wall time in output")
    _add_estimator_flags(p_solve)

    p_gen = sub.add_parser("generate", help="write a synthetic correspondence file")
    p_gen.add_argument("output", help="destination file")
    p_gen.add_argument("--n", type=int, default=500, help="total correspondences")
    p_gen.add_argument("--w", type=float, default=0.1, help="inlier rate")
    _add_scene_flags(p_gen)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--truth", help="9 comma-separated row-major entries; random when omitted"
    )

    p_bench = sub.add_parser("bench", help="Monte-Carlo comparison of the methods")
    p_bench.add_argument("--input", help="correspondence file; synthetic scenes when omitted")
    p_bench.add_argument("--methods", default="hsolo,ransac", help="comma-separated subset")
    p_bench.add_argument("--trials", type=int, default=100)
    p_bench.add_argument(
        "--w", default="0.03,0.05,0.1,0.2,0.4", help="synthetic inlier rates", action=_SceneFlag
    )
    p_bench.add_argument("--n", type=int, default=500, help="synthetic pool size", action=_SceneFlag)
    _add_scene_flags(p_bench)
    p_bench.add_argument(
        "--workers", type=int, default=1,
        help="trial worker processes, at most one per trial and usable CPU; each has its own"
        " memory and the output bytes do not change (default 1: in this process)",
    )
    p_bench.add_argument("--records-out", help="also write the per-trial table here")
    p_bench.add_argument("--timing", action="store_true", help="include real wall times")
    _add_estimator_flags(p_bench)

    p_theory = sub.add_parser("theory", help="iteration-count curves")
    p_theory.add_argument("--w", default="0.03,0.05,0.1,0.2,0.4", help="inlier rates")
    p_theory.add_argument("--n-values", default="4", help="RANSAC sample sizes")
    p_theory.add_argument("--p", type=float, default=HsoloConfig.p)
    p_theory.add_argument("--nf", type=int, default=HsoloConfig.n_f)
    p_theory.add_argument("--wf", type=float, default=HsoloConfig.w_f)

    p_cal = sub.add_parser(
        "calibrate-epsilon-r",
        help="suggest a gate threshold from a file's filtered-median errors",
    )
    p_cal.add_argument("input", help="correspondence file with byproducts")
    p_cal.add_argument("--nf", type=int, default=HsoloConfig.n_f, help="filtered-set size")

    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "generate": _cmd_generate,
    "bench": _cmd_bench,
    "theory": _cmd_theory,
    "calibrate-epsilon-r": _cmd_calibrate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NoModelFound as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 1
    except (HsoloError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
