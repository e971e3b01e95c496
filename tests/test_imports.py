"""Every import in a package module is read in the scope that makes it.

An import nothing reads still runs on every CLI start and hides what a
module really depends on.  The scan is by AST: a name bound by a top-level
`import` or `from ... import` must appear as a name elsewhere in the module,
and a name bound by an import inside a function must appear inside that
function.  The CLI imports most of what a command runs inside the command,
so the second rule carries the guard to those imports.
"""

import ast
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
