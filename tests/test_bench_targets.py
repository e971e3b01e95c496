"""Every function the benchmark traces still exists.

`perfbench/layers.py` wraps the package's functions by name and drops the
metrics of any target it cannot find, so a renamed or deleted function
would silently change the benchmark's result line.  This test loads the
harness module by path and resolves each target the way it does.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = load_layers()


@pytest.mark.parametrize("target", layers.SPAN_TARGETS + layers.COUNT_TARGETS)
def test_target_resolves(target):
    assert layers._resolve(target) is not None, f"{target} is gone; its metrics would be absent"
