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


# the names through which the os module reads or writes the process environment
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _environment_reads(source: str) -> list[tuple[str, str | None]]:
    """``(function, key)`` for every use of the process environment in
    ``source`` (``os.environ``, ``os.getenv`` and the like, imported by any
    spelling): the enclosing function, ``<module>`` at the top level, and the
    key when it is a string literal, else None."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def key(node):
        up = parent.get(node)
        if isinstance(up, ast.Attribute):  # os.environ.get(...)
            up = parent.get(up)
        if isinstance(up, ast.Subscript):
            arg = up.slice
        elif isinstance(up, ast.Call) and up.args:
            arg = up.args[0]
        else:
            return None
        return arg.value if isinstance(arg, ast.Constant) else None

    def function(node):
        while node in parent:
            node = parent[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node.name
        return "<module>"

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            continue
        if name in ENVIRONMENT:
            found.append((function(node), None if isinstance(node, ast.alias) else key(node)))
    return sorted(found, key=str)


def test_environment_read_detector():
    source = ("import os\nfrom os import getenv as ge, environ\n"
              "LEVEL = os.environ['LEVEL']\n"
              "def f():\n    return os.getenv('A'), environ.get('B', '1')\n"
              "def g(name):\n    return os.environ.get(name)\n")
    assert _environment_reads(source) == [("<module>", "LEVEL"), ("<module>", None),
                                          ("<module>", None), ("f", "A"), ("f", "B"),
                                          ("g", None)]


def test_no_new_knob():
    # GLSET_THREADS, read in thread_count, is the one setting outside a
    # config file, and the API keeps its 58 names
    reads = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
             if (found := _environment_reads(path.read_text()))}
    assert reads == {"density.py": [("thread_count", "GLSET_THREADS")]}
    assert len(glset.__all__) == 58
