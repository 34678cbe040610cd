"""Every name a hierwave module imports is read in that module: an import
left behind by a change that stopped using it fails here."""

import ast
from pathlib import Path

import hierwave


def _unread_imports(text: str) -> list[str]:
    """The names the module source text imports and never loads, in order of
    import; `from __future__ import ...` names no value and is left out."""
    tree = ast.parse(text)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_finds_an_unread_import():
    assert _unread_imports("import os\nfrom json import dumps, loads as load\nload\n") == ["os", "dumps"]


def test_every_imported_name_is_read():
    unread = {path.name: names for path in sorted(Path(hierwave.__file__).parent.glob("*.py"))
              if (names := _unread_imports(path.read_text(encoding="utf-8")))}
    assert unread == {}
