"""The package's public names: `__all__` and the imports of `__init__` agree."""

import ast
from pathlib import Path

import maskcheck as mc


def test_all_names_resolve():
    assert [name for name in mc.__all__ if not hasattr(mc, name)] == []
    assert len(set(mc.__all__)) == len(mc.__all__)


def test_public_imports_are_exported():
    tree = ast.parse(Path(mc.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(mc.__all__)) == []
