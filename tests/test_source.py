"""Source hygiene checks that need no linter: every import is used, and only
the command line and the file formats name a file writer."""

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


def test_only_cli_and_serialize_name_a_writer():
    # The experiments compute; the command line writes what they return.
    writer = re.compile(r"\b(atomic_write_text|atomic_write_bytes|write_json)\b")
    naming = sorted(p.name for p in PACKAGE.glob("*.py") if writer.search(p.read_text()))
    assert naming == ["cli.py", "serialize.py"]
