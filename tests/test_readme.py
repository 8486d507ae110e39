"""The package exports only what README.md documents, and src/curvkind
defines nothing that only tests read."""

import ast
from pathlib import Path
import re
from types import ModuleType

import curvkind

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "curvkind"


def _documented():
    """Every identifier inside a backticked span of README.md, fenced or inline."""
    text = README.read_text()
    fenced = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    inline = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text, flags=re.M | re.S))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(fenced + inline)))


def test_every_export_is_documented():
    exported = {
        name
        for name, value in vars(curvkind).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(exported - _documented()) == []


def test_every_definition_has_a_reader_outside_tests():
    """Each function, class and method of src/curvkind is read by name in the
    library (its __init__ aside), benchmarks/ or perfbench/, or is named in
    README.md; tests and demos do not count as readers."""
    sources = sorted(PACKAGE.glob("*.py"))
    readers = [p for p in sources if p.name != "__init__.py"]
    for directory in ("benchmarks", "perfbench"):
        readers += sorted((ROOT / directory).glob("*.py"))
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in readers
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    documented = _documented()
    unread = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
        and node.name not in documented
    ]
    assert unread == []
