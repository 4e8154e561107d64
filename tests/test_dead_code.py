"""Dead-code guard: every public module-level function, class and
UPPER_CASE constant of src/semgrid, every public method and property
of its public classes, and every public field of its public dataclasses,
is used by the program itself.

A use is a reference from src/ (other than the definition), from
scripts/, or a [project.scripts] entry point: a read of the name or
attribute (an assignment target is not one), an import, or a string
constant equal to the name, as getattr takes it.  References from tests/
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any((d.func if isinstance(d, ast.Call) else d).id == "dataclass"
               for d in node.decorator_list)


def public_definitions() -> list[tuple[str, str]]:
    """('module.py', name) of every public module-level def, class and
    UPPER_CASE constant, and ('module.py', 'Class.name') of every public
    method and property of a public class and every public field of a
    public dataclass."""
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
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                out += [(path.name, f"{node.name}.{item.target.id}") for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and not item.target.id.startswith("_")]
    return out


def referenced_names(paths) -> set[str]:
    """Names read, read as attributes, imported or spelled as string
    constants in the given files; a name or attribute that is only
    assigned is not read, one augmented (+=) is."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target,
                                                                (ast.Name, ast.Attribute)):
                names.add(ast.unparse(node.target).rpartition(".")[2])  # x.a += 1 reads a
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
    assert ("pose.py", "PoseSet2p5D.from_feedback") in defs  # a dataclass field
    assert ("geometry.py", "CameraCalib.depth_noise_sigma") in defs  # frozen dataclass
    assert ("synthworld.py", "GroundTruthScene._static_casts") not in defs  # private
    assert {"main", "sensor_node_main", "backend_main"} <= entry_point_names()


def test_guard_counts_reads_not_assignments(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("A = 1\nB = A\nB.c = 2\nB.d += 1\nC = getattr(B, 'e')\n")
    assert referenced_names([module]) == {"A", "B", "d", "getattr", "e"}
