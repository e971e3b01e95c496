"""Every top-level import of a package module is read somewhere in that module.

An import nothing reads still runs on every CLI start and hides what a
module really depends on.  The scan is by AST: a name bound by a top-level
`import` or `from ... import` must appear as a name elsewhere in the module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "absquares"


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_read(module):
    assert unread_imports(module.read_text()) == []


def test_scan_flags_an_unread_import():
    source = "import os\nfrom math import isqrt, log\nimport numpy as np\n\nprint(np.pi, log(2))\n"
    assert unread_imports(source) == ["isqrt (line 2)", "os (line 1)"]
