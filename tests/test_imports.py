"""Every name a module of the package, the tests or the scripts imports is
used in that module.  No linter is required: the check parses each module
with ``ast``.  A package's ``__init__.py`` imports to re-export, and an
``if TYPE_CHECKING:`` import serves annotations alone, so both are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/capflow", "tests", "scripts") for p in (ROOT / d).glob("*.py")
                 if p.name != "__init__.py")


def _type_checking_imports(tree: ast.Module) -> set:
    """The import nodes under an ``if TYPE_CHECKING:`` (or ``typing.TYPE_CHECKING``)."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            exempt.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    return exempt


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, in import order."""
    tree = ast.parse(source)
    exempt = _type_checking_imports(tree)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in exempt:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds a; "import a.b as c" and "from a import b" bind the alias
                bound = alias.asname or (alias.name.split(".")[0]
                                         if isinstance(node, ast.Import) else alias.name)
                imported.append(bound)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_finds_unused_and_spares_used_and_exempt_imports():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import numpy as np\n"
              "import scipy.sparse\n"
              "from typing import TYPE_CHECKING\n"
              "from math import inf, pi\n"
              "if TYPE_CHECKING:\n"
              "    from pathlib import Path\n"
              "def f():\n"
              "    import json\n"
              "    return np.zeros(2) + pi, scipy.sparse\n"
              "print(sys.argv)\n")
    assert unused_imports(source) == ["os", "inf", "json"]


def test_no_module_imports_a_name_it_does_not_use():
    assert len(MODULES) > 30
    unused = {str(p.relative_to(ROOT)): names for p in MODULES
              if (names := unused_imports(p.read_text()))}
    assert unused == {}
