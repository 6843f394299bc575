#!/usr/bin/env python3
"""Self-test of the benchmark's tracing, run from the root of a source checkout.

    python3 perfbench/selftest.py

For every workload it runs the first operations untraced, then the same
operations with the tracer installed, and checks that:

- both passes return identical model bytes, inlier sets and success flags;
- every target attribute was wrapped while tracing and is the original
  object again afterwards;
- spans were recorded, and every span's parent ran on the span's own thread.

Exits 0 when all checks pass, 1 otherwise.
"""

import importlib
import sys

import run  # pins the BLAS thread counts before numpy is imported

OPERATIONS = 2
SEED = 7


def attributes(targets) -> dict:
    return {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attrs in targets.items()
        for attr in attrs
    }


def main() -> int:
    if not run.use_checkout():
        return 2
    from tracer import TARGETS, Tracer, untraced_call
    from workloads import WORKLOADS

    originals = attributes(TARGETS)
    failures = []
    with run.work_dir() as workdir:
        for name, cls in WORKLOADS.items():
            workload = cls(SEED, workdir)
            inputs, problems = workload.build(untraced_call)
            plain = [workload.op(inputs, i, untraced_call) for i in range(OPERATIONS)]
            tracer = Tracer()
            tracer.install()
            try:
                wrapped = attributes(TARGETS)
                traced = [workload.op(inputs, i, tracer.call) for i in range(OPERATIONS)]
            finally:
                tracer.uninstall()
            problems += run.compare_passes(plain, traced)
            problems += [p for r in plain + traced for p in r.problems]
            problems += [f"{m}.{a} was not wrapped" for (m, a), fn in wrapped.items() if fn is originals[(m, a)]]
            after = attributes(TARGETS)
            problems += [f"{m}.{a} was not restored" for (m, a), fn in after.items() if fn is not originals[(m, a)]]
            by_id = {s.sid: s for s in tracer.spans}
            if not tracer.spans:
                problems.append("no spans recorded")
            problems += [
                f"span {s.name} has its parent on another thread"
                for s in tracer.spans
                if s.parent is not None and by_id[s.parent].thread != s.thread
            ]
            solves = sum(len(r.solves) for r in plain)
            print(f"{name}: {solves} solves, {len(tracer.spans)} spans, {len(problems)} problems")
            failures += [f"{name}: {p}" for p in problems]
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
