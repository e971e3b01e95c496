"""Every import in a package module is read in the scope that makes it.

An import nothing reads still runs on every CLI start and hides what a
module really depends on.  The scan is by AST: a name bound by a top-level
`import` or `from ... import` must appear as a name elsewhere in the module,
and a name bound by an import inside a function must appear inside that
function.  The CLI imports most of what a command runs inside the command,
so the second rule carries the guard to those imports.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "absquares"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def imports_of(scope):
    """The import statements of a module or function, not of the functions
    and classes nested in it."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                yield node
        elif not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    unread = []
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))]:
        bound = {}
        for node in imports_of(scope):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unread += [f"{name} (line {line})" for name, line in bound.items() if name not in read]
    return sorted(unread)


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_read(module):
    assert unread_imports(module.read_text()) == []


def test_scan_flags_an_unread_import():
    source = "import os\nfrom math import isqrt, log\nimport numpy as np\n\nprint(np.pi, log(2))\n"
    assert unread_imports(source) == ["isqrt (line 2)", "os (line 1)"]


def test_scan_flags_an_unread_import_inside_a_function():
    # `os` is read in g, but f, which imports it, never reads it
    source = (
        "def f(flag):\n"
        "    from math import isqrt\n"
        "    import os\n"
        "    if flag:\n"
        "        import json\n"
        "        return json.dumps(isqrt(4))\n"
        "\n"
        "def g():\n"
        "    return os.sep\n"
    )
    assert unread_imports(source) == ["os (line 3)"]


# -- every package definition is reached --------------------------------------

LAYERS = PACKAGE.parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def names_read(node) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def unreached_definitions(sources: dict[str, str], targets) -> list[str]:
    """The module-level functions and classes of `sources` (module name ->
    source) that nothing reaches: not the CLI module, not the code that runs
    when a module is imported, not a benchmark target ("<module>.<name>...")
    and not, by name, a definition that is reached itself."""
    definitions, roots = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                definitions[f"{module}.{node.name}"] = node
                if module == "cli":
                    roots |= names_read(node)
            else:
                roots |= names_read(node)
    roots |= {target.split(".")[1] for target in targets}
    reached, frontier = set(), roots
    while frontier:
        reached |= frontier
        frontier = set().union(
            *(names_read(node) for qualified, node in definitions.items()
              if qualified.split(".")[1] in frontier)
        ) - reached
    return sorted(
        qualified for qualified in definitions
        if not qualified.startswith("cli.") and qualified.split(".")[1] not in reached
    )


def test_every_definition_is_reached_by_the_cli_or_the_benchmark():
    layers = load_layers()
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    unreached = unreached_definitions(sources, layers.SPAN_TARGETS + layers.COUNT_TARGETS)
    assert unreached == [], "reached by no CLI path or benchmark target: " + ", ".join(unreached)


def test_reach_scan_follows_calls_from_the_cli_and_the_targets():
    sources = {
        "cli": "def main():\n    return used()\n",
        "engine": (
            "LIMIT = limit()\n"
            "def limit():\n    return 3\n"
            "def used():\n    return helper()\n"
            "def helper():\n    return 1\n"
            "def traced():\n    return 2\n"
            "def oracle():\n    return used() + orphan()\n"
            "def orphan():\n    return 0\n"
        ),
    }
    assert unreached_definitions(sources, ("engine.traced",)) == [
        "engine.oracle", "engine.orphan"
    ]


# -- the oracles share no code with the engine ----------------------------------

REFERENCES = sorted(Path(__file__).resolve().parent.glob("*_reference.py"))
# What a reference module may import from the package: words, exact numbers
# and the profiles' result types, nothing that computes an answer.
ORACLE_MAY_IMPORT = {
    "absquares.words": None,  # every name
    "absquares.quadratic": {"QuadraticIrrational", "ContinuedFraction"},
    "absquares.counting": {"ASFProfile", "InequivalentProfile"},
}


def engine_imports(source: str) -> list[str]:
    """The imports from `absquares` that ORACLE_MAY_IMPORT does not allow."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "absquares":
            imported = [(f"absquares.{alias.name}", None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported = [(node.module or "", alias.name) for alias in node.names]
        else:
            continue
        for module, name in imported:
            if module.split(".")[0] != "absquares":
                continue
            allowed = ORACLE_MAY_IMPORT.get(module, set())
            if allowed is not None and name not in allowed:
                found.append(f"{module}{'.' + name if name else ''} (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", REFERENCES, ids=lambda path: path.name)
def test_reference_module_imports_no_engine(module):
    assert engine_imports(module.read_text()) == []


def test_engine_import_scan():
    source = (
        "import itertools\n"
        "import absquares.words\n"
        "from absquares import words, counting\n"
        "from absquares.counting import ASFProfile, FactorIndex\n"
        "from absquares.quadratic import ContinuedFraction\n"
        "def f():\n"
        "    from absquares.sturmian import sturmian_prefix\n"
        "    import absquares\n"
    )
    assert engine_imports(source) == [
        "absquares.counting (line 3)",
        "absquares.counting.FactorIndex (line 4)",
        "absquares.sturmian.sturmian_prefix (line 7)",
        "absquares (line 8)",
    ]
