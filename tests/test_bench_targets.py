"""Every function the benchmark traces still exists, and `cli` still names it.

`perfbench/layers.py` wraps the package's functions by name and drops the
metrics of any target it cannot find, so a renamed or deleted function
would silently change the benchmark's result line.  This test loads the
harness module by path and resolves each target the way it does.

The harness's self-test also reads library functions as attributes of
`absquares.cli` and expects the wrapped function there during a pass.  The
CLI imports them inside its commands and resolves `cli.<name>` on access,
which the last tests pin.
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


# The library names `absquares.cli` imported at module level before each
# command imported what it runs, by home module.
CLI_NAMES = {
    "analysis": ("random_baseline", "richness_report", "triple_block"),
    "counting": ("asf_profile", "inequivalent_profile"),
    "discrepancy": ("certificate_sweep", "growth_certificate", "rotation_discrepancy"),
    "quadratic": ("QuadraticIrrational", "parse_angle"),
    "search": ("compare_alphabets", "max_asf", "max_inequivalent"),
    "sturmian": ("SturmianSpec", "sturmian_asf_range", "sturmian_prefix"),
    "substitutions": (
        "FixedPointSpec", "fixed_point_prefix", "read_substitution_file", "thue_morse_prefix"
    ),
    "words": ("Word", "read_word_file", "write_word_file"),
}


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
