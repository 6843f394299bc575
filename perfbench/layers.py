"""Per-layer metrics from a traced run's spans.

A layer's self time is its span minus the spans it called directly. Work
counts come from the values the wrapped calls returned (see
``tracer._work``). "Per solve" means per hsolo solve: every span below an
``estimator.hsolo_estimate`` span is charged to that solve. A RANSAC span with
no hsolo ancestor is the baseline method; one below hsolo is an inner RANSAC
on a gated-in seed. A metric whose layer the workload never calls reads 0,
with a base of 0 in the printed breakdown.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

HSOLO = "estimator.hsolo_estimate"
RANSAC = "robust.ransac_homography"

# name -> unit, in the order they are reported
METRICS = {
    "synthetic.generate_scene.ms_per_krow": "ms/krow",
    "bench.generate_share": "ratio",
    "fileio.load_correspondences.ms_per_krow": "ms/krow",
    "fileio.save_correspondences.ms_per_krow": "ms/krow",
    "fileio.save_result.ms": "ms",
    "geometry.pool_arrays.calls_per_solve": "count",
    "geometry.pool_arrays.ms_per_solve": "ms",
    "geometry.transfer_errors.calls_per_solve": "count",
    "geometry.transfer_errors.ms_per_solve": "ms",
    "solvers.single_match_homography.calls_per_solve": "count",
    "solvers.single_match_homography.us_per_call": "us",
    "solvers.dlt_solve.ms_per_solve": "ms",
    "estimator.seeds_walked": "count",
    "estimator.seeds_gated_in": "count",
    "estimator.gate_pass_ratio": "ratio",
    "estimator.improving_seed_ratio": "ratio",
    "estimator.seed_loop_self_ms_per_solve": "ms",
    "estimator.refine_model.ms_per_solve": "ms",
    "estimator.refine_model.lm_iterations": "count",
    "estimator.refine_model.degraded_count": "count",
    "robust.inner_draws_per_solve": "count",
    "robust.inner_ms_per_solve": "ms",
    "robust.inner_no_model_ratio": "ratio",
    "robust.baseline_draws_per_solve": "count",
    "robust.baseline_us_per_draw": "us",
    "robust.improving_draw_ratio": "ratio",
    "robust.baseline_success_rate": "ratio",
    "robust.baseline_err_px_p50": "px",
    "bench.trial_ms_p50": "ms",
    "bench.cpu_per_wall": "ratio",
    "cli.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Index:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                self.children[s.parent].append(s)
        self._owner: dict[int, int | None] = {}

    def self_ms(self, s) -> float:
        return s.ms - sum(c.ms for c in self.children[s.sid])

    def owner(self, s) -> int | None:
        """sid of the nearest hsolo solve above ``s`` (None if there is none)."""
        if s.sid not in self._owner:
            p = self.by_id.get(s.parent) if s.parent is not None else None
            if p is None:
                self._owner[s.sid] = None
            elif p.name == HSOLO:
                self._owner[s.sid] = p.sid
            else:
                self._owner[s.sid] = self.owner(p)
        return self._owner[s.sid]

    def named(self, name: str, in_solve: bool | None = None) -> list:
        out = [s for s in self.spans if s.name == name]
        if in_solve is not None:
            out = [s for s in out if (self.owner(s) is not None) == in_solve]
        return out


def _ms_per_krow(spans) -> tuple[float, str]:
    rows = sum(s.work[0] for s in spans if s.work)
    ms = sum(s.ms for s in spans if s.work)
    return _ratio(ms, rows / 1e3), f"{ms:.1f} ms over {rows} rows"


def _bench_trials(ix: _Index) -> list[tuple[float, float]]:
    """(trial ms, generate ms) per bench trial.

    bench runs each trial on a worker thread as generate_scene followed by the
    estimator calls, so a trial spans from one generate_scene span to the end
    of the last root span before that thread's next one.
    """
    per_thread = defaultdict(list)
    for s in ix.spans:
        if s.site == "bench" and s.parent is None:
            per_thread[s.thread].append(s)
    trials = []
    for spans in per_thread.values():
        spans.sort(key=lambda s: s.t0)
        current = None
        for s in spans:
            if s.name == "synthetic.generate_scene":
                if current:
                    trials.append(current)
                current = [s.t0, s.t1, s.ms]
            elif current:
                current[1] = s.t1
        if current:
            trials.append(current)
    return [((t1 - t0) * 1e3, gen_ms) for t0, t1, gen_ms in trials]


def layer_metrics(spans, baseline_solves, cpu_per_wall: float, overhead_pct: float):
    """Return ({name: value}, {name: printed base}) for every name in METRICS."""
    ix = _Index(spans)
    v, base = {}, {}

    def put(name, value, why):
        v[name] = float(value)
        base[name] = why

    solves = ix.named(HSOLO)
    ok = [s for s in solves if s.work]
    nh = len(solves)

    def per_solve(name, *, calls=None, total=None):
        spans_in = ix.named(name, in_solve=True)
        ms = sum(s.ms for s in spans_in)
        if total:
            put(f"{name}.{total}", _ratio(ms, nh), f"{ms:.1f} ms / {nh} hsolo solves")
        if calls:
            put(f"{name}.{calls}", _ratio(len(spans_in), nh), f"{len(spans_in)} calls / {nh} hsolo solves")
        return spans_in

    gen = ix.named("synthetic.generate_scene")
    put("synthetic.generate_scene.ms_per_krow", *_ms_per_krow(gen))
    trials = _bench_trials(ix)
    trial_ms = sum(t for t, _ in trials)
    gen_ms = sum(g for _, g in trials)
    put("bench.generate_share", _ratio(gen_ms, trial_ms), f"{gen_ms:.1f} / {trial_ms:.1f} ms of bench trials")
    put("fileio.load_correspondences.ms_per_krow", *_ms_per_krow(ix.named("fileio.load_correspondences")))
    put("fileio.save_correspondences.ms_per_krow", *_ms_per_krow(ix.named("fileio.save_correspondences")))
    saves = ix.named("fileio.save_result")
    put("fileio.save_result.ms", _ratio(sum(s.ms for s in saves), len(saves)), f"mean of {len(saves)} calls")

    per_solve("geometry.pool_arrays", calls="calls_per_solve", total="ms_per_solve")
    per_solve("geometry.transfer_errors", calls="calls_per_solve", total="ms_per_solve")
    sketches = per_solve("solvers.single_match_homography", calls="calls_per_solve")
    sketch_ms = sum(s.ms for s in sketches)
    put(
        "solvers.single_match_homography.us_per_call",
        _ratio(sketch_ms * 1e3, len(sketches)),
        f"{sketch_ms:.1f} ms / {len(sketches)} calls",
    )
    per_solve("solvers.dlt_solve", total="ms_per_solve")

    walked = sum(s.work[0] for s in ok)
    inner = ix.named(RANSAC, in_solve=True)
    inner_ok = [s for s in inner if s.work]
    gated = len(inner)
    improving = sum(s.work[1] for s in ok)
    put("estimator.seeds_walked", _ratio(walked, len(ok)), f"{walked} seeds / {len(ok)} solves with a model")
    put("estimator.seeds_gated_in", _ratio(gated, nh), f"{gated} inner RANSAC calls / {nh} hsolo solves")
    put("estimator.gate_pass_ratio", _ratio(gated, len(sketches)), f"{gated} gated in / {len(sketches)} seeds")
    put("estimator.improving_seed_ratio", _ratio(improving, gated), f"{improving} improvements / {gated} gated in")
    loop_ms = sum(ix.self_ms(s) for s in solves)
    put("estimator.seed_loop_self_ms_per_solve", _ratio(loop_ms, nh), f"{loop_ms:.1f} ms / {nh} hsolo solves")
    refines = per_solve("estimator.refine_model", total="ms_per_solve")
    lm = [s.work[0] for s in refines if s.work]
    put("estimator.refine_model.lm_iterations", _ratio(sum(lm), len(lm)), f"{sum(lm)} steps / {len(lm)} calls")
    degraded = sum(s.work[1] for s in refines if s.work)
    put("estimator.refine_model.degraded_count", degraded, f"of {len(refines)} calls")

    draws = sum(s.work[0] for s in inner_ok)
    inner_ms = sum(s.ms for s in inner)
    no_model = sum(1 for s in inner if s.error == "NoModelFound")
    put("robust.inner_draws_per_solve", _ratio(draws, nh), f"{draws} draws / {nh} hsolo solves")
    put("robust.inner_ms_per_solve", _ratio(inner_ms, nh), f"{inner_ms:.1f} ms / {nh} hsolo solves")
    put("robust.inner_no_model_ratio", _ratio(no_model, gated), f"{no_model} NoModelFound / {gated} inner calls")

    baseline = [s for s in ix.named(RANSAC, in_solve=False) if s.work]
    b_draws = sum(s.work[0] for s in baseline)
    b_self = sum(ix.self_ms(s) for s in baseline)
    b_improving = sum(s.work[1] for s in baseline)
    put("robust.baseline_draws_per_solve", _ratio(b_draws, len(baseline)), f"{b_draws} draws / {len(baseline)} solves")
    put("robust.baseline_us_per_draw", _ratio(b_self * 1e3, b_draws), f"{b_self:.1f} ms self time / {b_draws} draws")
    put("robust.improving_draw_ratio", _ratio(b_improving, b_draws), f"{b_improving} improvements / {b_draws} draws")
    wins = [s for s in baseline_solves if s.success]
    put(
        "robust.baseline_success_rate",
        _ratio(len(wins), len(baseline_solves)),
        f"{len(wins)} successes / {len(baseline_solves)} RANSAC solves",
    )
    put(
        "robust.baseline_err_px_p50",
        np.median([s.err_px for s in wins]) if wins else 0.0,
        f"median of {len(wins)} successful solves",
    )

    trial_list = sorted(t for t, _ in trials)
    put("bench.trial_ms_p50", np.median(trial_list) if trial_list else 0.0, f"median of {len(trial_list)} bench trials")
    put("bench.cpu_per_wall", cpu_per_wall, "process CPU seconds / wall seconds, untraced loop")
    commands = ix.named("cli.main")
    cli_ms = sum(ix.self_ms(s) for s in commands)
    put("cli.overhead_ms", _ratio(cli_ms, len(commands)), f"{cli_ms:.1f} ms self time / {len(commands)} commands")
    put("trace.overhead_pct", overhead_pct, "traced minus untraced time of the same operations")
    if set(v) != set(METRICS):
        raise RuntimeError(f"layer metrics out of step with METRICS: {set(v) ^ set(METRICS)}")
    return v, base
