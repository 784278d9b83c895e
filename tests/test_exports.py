"""The package's public export list and its import discipline."""

import ast
from pathlib import Path

import hstarlib


def test_all_names_resolve_and_are_unique_and_sorted():
    names = hstarlib.__all__
    assert [name for name in names if not hasattr(hstarlib, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_no_module_imports_fractions():
    # the library computes in one integer domain
    package = Path(hstarlib.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders += [(path.name, m) for m in modules if m.partition(".")[0] == "fractions"]
    assert offenders == []
