"""The benchmark's tracer wraps library functions by name; each must exist.

A library function renamed or deleted under a name ``perfbench/tracer.py``
patches would break the traced benchmark run, which the rest of the suite
does not exercise.  The tracer file is read, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in _patches()])
def test_tracer_patch_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
