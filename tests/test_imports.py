"""Every direction of the package needs only the standard library, and
every name a module imports is used there or exported."""

import ast
import sys
from pathlib import Path

import cycfix


def _imports(path):
    """The module names a source file imports, relative ones with their
    leading dots."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def test_package_imports_only_the_standard_library():
    pkg = Path(cycfix.__file__).parent
    sources = sorted(pkg.rglob("*.py"))
    assert pkg / "core.py" in sources and pkg / "cyclic.py" in sources
    foreign = {
        (src.name, name) for src in sources for name in _imports(src)
        if not name.startswith(".")
        and name.split(".")[0] not in sys.stdlib_module_names}
    assert foreign == set()


def _unused_imports(path):
    """The names a source file binds by import but neither loads nor lists
    in ``__all__``.  ``from __future__`` imports bind nothing."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return bound - used - exported


def test_package_imports_only_what_it_uses():
    pkg = Path(cycfix.__file__).parent
    unused = {(src.name, name) for src in sorted(pkg.rglob("*.py"))
              for name in _unused_imports(src)}
    assert unused == set()
