"""Source hygiene checks that need no linter: every import is used, every
private module-level function or class is referenced, and only the command
line and the file formats name a file writer."""

import ast
import re
from pathlib import Path

import torspec

PACKAGE = Path(torspec.__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {}
    for path in modules:
        names = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if names:
            unused[path.name] = names
    assert unused == {}


def test_unused_import_check_sees_an_unused_name():
    tree = ast.parse("import math\nfrom os import path, sep\n\nprint(path)\n")
    assert _unused_imports(tree) == ["math (line 1)", "sep (line 2)"]


def _unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    # A private name counts as referenced when any module of the package
    # loads it, reads it as an attribute or imports it.
    defined = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{module}: {name}" for module, name in defined if name not in used]


def test_every_private_helper_is_referenced():
    # A merge of two helpers cannot leave the old one behind.
    paths = sorted(PACKAGE.glob("*.py"))
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    assert _unreferenced_privates(trees) == []


def test_private_reference_check_sees_a_dead_helper():
    a = ast.parse("def _used():\n    pass\n\ndef _dead():\n    pass\n\nclass _Gone:\n    pass\n")
    b = ast.parse("from a import _used\n\ndef public():\n    return _used()\n")
    assert _unreferenced_privates({"a.py": a, "b.py": b}) == ["a.py: _dead", "a.py: _Gone"]


def test_only_cli_and_serialize_name_a_writer():
    # The experiments compute; the command line writes what they return.
    writer = re.compile(r"\b(atomic_write_text|atomic_write_bytes|write_json)\b")
    naming = sorted(p.name for p in PACKAGE.glob("*.py") if writer.search(p.read_text()))
    assert naming == ["cli.py", "serialize.py"]
