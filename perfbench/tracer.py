"""Span tracing for the benchmark, done entirely from outside the package.

``Tracer.install`` replaces the package's public functions at the module
attributes its callers look them up through, so a call such as
``estimator.pool_arrays(...)`` inside ``hsolo_estimate`` becomes a span.
Private helpers are never wrapped; their cost shows as self time of their
public caller, so renaming them does not break the benchmark.

Each span records name, call site, start, end, parent and root (the solve it
belongs to). The parent stack is per thread because ``bench`` runs trials on
worker threads. Spans keep a few work counts read from the call's return
value, never the value itself, and stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass

# module -> public names wrapped there, each the attribute its callers use
TARGETS = {
    "hsolo.estimator": (
        "single_match_homography",
        "transfer_errors",
        "pool_arrays",
        "ransac_homography",
        "refine_model",
    ),
    "hsolo.robust": ("pool_arrays", "transfer_errors", "dlt_solve"),
    "hsolo.cli": (
        "load_correspondences",
        "hsolo_estimate",
        "ransac_homography",
        "save_result",
        "run_benchmark",
    ),
    "hsolo.fileio": ("save_correspondences",),
    "hsolo.bench": ("generate_scene", "hsolo_estimate", "ransac_homography"),
}


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    root: int
    name: str  # "<defining module>.<function>", e.g. "geometry.pool_arrays"
    site: str  # module the call was looked up through, or "perfbench"
    t0: float
    t1: float
    thread: int
    error: str | None
    work: tuple  # counts read from the return value (see _work)

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3


def _work(name: str, args: tuple, result) -> tuple:
    """Work counts of one call, taken from its arguments and return value."""
    if name == "fileio.save_correspondences":
        return (len(args[1]),)
    if result is None:  # the call raised
        return ()
    if name in ("estimator.hsolo_estimate", "robust.ransac_homography"):
        return (result.iterations_run, len(result.history), result.support)
    if name == "estimator.refine_model":
        return (result.iterations, int(result.degraded))
    if name == "fileio.load_correspondences":
        return (len(result.correspondences),)
    if name == "synthetic.generate_scene":
        return (len(result[0]),)
    if name in ("geometry.pool_arrays", "geometry.transfer_errors"):
        rows = result[0] if name == "geometry.pool_arrays" else result
        return (rows.shape[0],)
    return ()


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans from wrapped package functions and benchmark calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, site: str, fn, *args, **kwargs):
        """Run ``fn`` as a span and return its result (re-raising its error)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        root = parent[1] if parent else sid
        stack.append((sid, root))
        result = error = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(
                    sid,
                    parent[0] if parent else None,
                    root,
                    name,
                    site,
                    t0,
                    t1,
                    threading.get_ident(),
                    error,
                    _work(name, args, result),
                )
            )

    def install(self) -> None:
        """Wrap every target attribute; ``uninstall`` puts the originals back."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attrs in TARGETS.items():
            module = importlib.import_module(mod_name)
            site = mod_name.rsplit(".", 1)[-1]
            for attr in attrs:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, site))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, site: str):
        name = _span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, site, fn, *args, **kwargs)

        return traced


def untraced_call(name: str, site: str, fn, *args, **kwargs):
    """Drop-in for :meth:`Tracer.call` when tracing is off."""
    return fn(*args, **kwargs)
