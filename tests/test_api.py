"""The public API: every exported name resolves, none is listed twice and
each one has a caller in the program, the demos or the benchmark, and no
glset module reaches into another one's private names."""

import ast
import re
from pathlib import Path

import glset

PACKAGE = Path(glset.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert [name for name in glset.__all__ if not hasattr(glset, name)] == []


def test_no_name_exported_twice():
    assert len(glset.__all__) == len(set(glset.__all__))


def _unused(names, sources) -> list[str]:
    """The names that occur in none of ``sources`` except on their own
    ``def``, ``class`` or module-level assignment line."""
    lines = [line for text in sources for line in text.splitlines()]
    unused = []
    for name in names:
        quoted = re.escape(name)
        word = re.compile(rf"\b{quoted}\b")
        definition = re.compile(rf"\s*(?:def|class)\s+{quoted}\b|{quoted}\s*[:=]")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    return unused


def test_unused_name_detector():
    sources = ["def used(x):\n    return x\n", "y = used(1)\n",
               "class Idle:\n    pass\n", "LIMIT = 3\n", "def idler(): pass\n"]
    assert _unused(["used", "Idle", "LIMIT", "idler"], sources) == ["Idle", "LIMIT", "idler"]


def test_every_exported_name_has_a_caller():
    # outside __init__.py and the tests: a name only the tests use is dead API
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("demos/*.py")),
             *sorted(ROOT.glob("bench/*.py"))]
    sources = [path.read_text() for path in paths if path.name != "__init__.py"]
    names = [name for name in glset.__all__ if name != "__version__"]
    assert _unused(names, sources) == []


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
