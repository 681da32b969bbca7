"""Every direction of the package needs only the standard library."""

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
