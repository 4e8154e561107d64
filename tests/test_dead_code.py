"""Dead-code guard: every public module-level function, class and
UPPER_CASE constant of src/semgrid, and every public method and property
of its public classes, is used by the program itself.

A use is a reference from src/ (other than the definition), from
scripts/, or a [project.scripts] entry point.  References from tests/
do not count: code only tests call is a second form of something the
program does, or nothing the program does.  Matching is by name, so a
name that is also used for something else counts as used; the guard can
miss dead code but never flags live code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "semgrid"


def public_definitions() -> list[tuple[str, str]]:
    """('module.py', name) of every public module-level def, class and
    UPPER_CASE constant, and ('module.py', 'Class.name') of every public
    method and property of a public class."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = ([node.target] if isinstance(node, ast.AnnAssign)
                       else node.targets if isinstance(node, ast.Assign) else [])
            out += [(path.name, t.id) for t in targets
                    if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)]
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(path.name, f"{node.name}.{item.name}") for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def referenced_names(paths) -> set[str]:
    """Names read, read as attributes or imported in the given files; a
    name that is only assigned is not read."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def entry_point_names() -> set[str]:
    """Functions named by [project.scripts] ('name = "module:function"')."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"[\w.]+:(\w+)"', section))


def unused_definitions() -> list[str]:
    used = (referenced_names([*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")])
            | entry_point_names())
    return [f"{module}:{name}" for module, name in public_definitions()
            if name.rpartition(".")[2] not in used]


def test_every_public_definition_is_used_by_the_program():
    assert unused_definitions() == []


def test_guard_sees_definitions_and_entry_points():
    defs = public_definitions()
    assert ("cloud.py", "fuse_semantics") in defs
    assert ("voxmap.py", "VoxelMap") in defs
    assert ("voxmap.py", "VoxelMap.integrate_cloud") in defs  # a method
    assert ("pose.py", "PoseSet2p5D.fusable") in defs  # a property
    assert ("pose.py", "CONF_MIN") in defs  # a constant
    assert ("semantics.py", "ClassSet.load") in defs  # a classmethod
    assert {"main", "sensor_node_main", "backend_main"} <= entry_point_names()


def test_guard_counts_reads_not_assignments(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("A = 1\nB = A\n")
    assert referenced_names([module]) == {"A"}
