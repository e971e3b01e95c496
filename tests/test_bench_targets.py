"""Every function the benchmark traces still exists, and `cli` names the one
the harness's self-test reads.

`perfbench/layers.py` wraps the package's functions by name and drops the
metrics of any target it cannot find, so a renamed or deleted function
would silently change the benchmark's result line.  This test loads the
harness module by path and resolves each target the way it does.

The harness's self-test also reads `asf_profile` as an attribute of
`absquares.cli` and expects the wrapped function there during a pass.  The
CLI imports what it runs inside its commands and resolves that one name
from `counting` on access; any other name is an AttributeError.  The last
tests pin this.
"""

import importlib
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


# The library names `absquares.cli` resolves, by home module.
CLI_NAMES = {"counting": ("asf_profile",)}


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in CLI_NAMES.items() for name in names]
)
def test_cli_name_is_its_modules(module, name):
    cli = importlib.import_module("absquares.cli")
    assert getattr(cli, name) is getattr(importlib.import_module(f"absquares.{module}"), name)


def test_cli_name_follows_a_replaced_function(monkeypatch):
    import absquares.cli
    import absquares.counting

    original = absquares.counting.asf_profile
    monkeypatch.setattr(absquares.counting, "asf_profile", lambda *args: None)
    assert absquares.cli.asf_profile is absquares.counting.asf_profile
    monkeypatch.undo()
    assert absquares.cli.asf_profile is original


def test_unknown_cli_name_raises_attribute_error():
    import absquares.cli

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        absquares.cli.no_such_name
