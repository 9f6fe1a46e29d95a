"""The public API: every exported name resolves and none is listed twice,
and no glset module reaches into another one's private names."""

import ast
from pathlib import Path

import glset

PACKAGE = Path(glset.__file__).resolve().parent


def test_every_exported_name_resolves():
    assert [name for name in glset.__all__ if not hasattr(glset, name)] == []


def test_no_name_exported_twice():
    assert len(glset.__all__) == len(set(glset.__all__))


def _private_imports(source: str) -> list[str]:
    """``module.name`` for every underscore name that ``source`` imports from
    a glset module; dunder names such as ``__version__`` are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "glset":
            continue
        found += [f"{'.' * node.level}{module}.{alias.name}" for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_private_import_detector():
    source = ("from .model import _chunk_layout, CHUNK_SIZE\n"
              "from glset.surface import _ibp_records\n"
              "from . import __version__\n"
              "from numpy import _private\n"
              "def f():\n    from .density import _grid\n")
    assert _private_imports(source) == [".model._chunk_layout",
                                        "glset.surface._ibp_records",
                                        ".density._grid"]


def test_no_module_imports_private_names_of_another():
    offenders = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
                 if (names := _private_imports(path.read_text()))}
    assert offenders == {}
