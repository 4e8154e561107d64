"""Dependency guard: every third-party module that src/semgrid imports,
at any depth (an import inside a function counts), is listed in
pyproject.toml's [project] dependencies.

The standard library and the package's own relative imports need no
entry.  Packages that only tests use (pytest, hypothesis, and scipy for
its oracles) sit in the test extra, so an import of one of them by the
program fails this guard instead of loading it at run time unnoticed.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "semgrid"


def imported_modules(paths) -> dict[str, list[str]]:
    """Top-level name of every absolute import in the given files, with
    the 'file:line' of each import of it."""
    out: dict[str, list[str]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                out.setdefault(name.partition(".")[0], []).append(f"{path.name}:{node.lineno}")
    return out


def declared_dependencies() -> set[str]:
    """Names in [project] dependencies, lower case, '-' read as '_'."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project]", 1)[1].split("\n[", 1)[0]
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", section, re.S | re.M).group(1)
    return {re.match(r"[\w.-]+", spec).group(0).lower().replace("-", "_")
            for spec in re.findall(r'"([^"]+)"', listed)}


def undeclared_imports(paths) -> dict[str, list[str]]:
    declared = declared_dependencies()
    return {name: where for name, where in imported_modules(paths).items()
            if name not in sys.stdlib_module_names and name != "semgrid"
            and name not in declared}


def test_every_third_party_import_is_a_dependency():
    assert undeclared_imports(SRC.glob("*.py")) == {}


def test_guard_sees_lazy_imports_and_dependencies(tmp_path):
    assert "numpy" in declared_dependencies()
    assert "numpy" in imported_modules(SRC.glob("*.py"))
    probe = tmp_path / "probe.py"
    probe.write_text("import json\nfrom . import cloud\n\n"
                     "def f():\n    from scipy.sparse import csgraph\n    import numpy.linalg\n")
    assert imported_modules([probe]) == {"json": ["probe.py:1"], "scipy": ["probe.py:5"],
                                         "numpy": ["probe.py:6"]}
    assert undeclared_imports([probe]) == {"scipy": ["probe.py:5"]}
