"""The benchmark tracer's view of the package must stay valid.

``perfbench/tracer.py`` wraps package functions at the module attributes
their callers look them up through (``TARGETS``). A cleanup that drops one of
those imports would break traced benchmark runs with an ``AttributeError``;
this test catches it in the unit suite instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
