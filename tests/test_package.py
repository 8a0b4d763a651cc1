"""The package's public names: `__all__` and the imports of `__init__` agree."""

import ast
import os
import subprocess
import sys
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


def test_cli_import_loads_no_pool_machinery():
    """Importing the CLI, which every run does, loads neither
    concurrent.futures nor multiprocessing: the loader and the dense
    analysis run their threads with `threading` alone."""
    script = ("import sys, maskcheck.cli; print(sorted(m for m in sys.modules "
              "if m.partition('.')[0] in ('concurrent', 'multiprocessing')))")
    src = Path(mc.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
