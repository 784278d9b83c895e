"""The package's public export list and its import discipline."""

import ast
import os
import subprocess
import sys
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


def test_every_export_is_used_outside_the_tests():
    # a public name that only the tests call is an oracle: it belongs in tests/
    package, root = Path(hstarlib.__file__).parent, Path(__file__).resolve().parents[1]
    files = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)  # a definition's own body does not count
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value  # perfbench looks functions up by name
                else:
                    continue
                if name != own:
                    used.add(name)
    assert sorted(set(hstarlib.__all__) - used) == []


def test_oracles_import_no_private_names():
    # an oracle that borrowed the library's own helpers would check the
    # library against itself
    oracles = Path(__file__).with_name("oracles.py")
    private = []
    for node in ast.walk(ast.parse(oracles.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hstarlib"):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_no_function_takes_a_budget():
    # the budget in force is set by budget.limit and read by budget.charge
    package = Path(hstarlib.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                offenders += [(path.name, node.lineno) for a in params if a.arg == "budget"]
    assert offenders == []


def test_only_poset_reads_files():
    # poset.read_file is the one place where a file's bytes become text;
    # any call named open counts (Path.open, io.open, codecs.open) but
    # os.open, the CLI's devnull, which opens no input
    package = Path(hstarlib.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "poset.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("read_text", "read_bytes", "open"):
                if not (func.attr == "open" and isinstance(func.value, ast.Name)
                        and func.value.id == "os"):
                    offenders.append((path.name, node.lineno, func.attr))
            elif isinstance(func, ast.Name) and func.id == "open":
                offenders.append((path.name, node.lineno, "open"))
    assert offenders == []


def test_cli_start_up_loads_no_dataclasses():
    # records are NamedTuples and run-wide caches lru_caches, so the CLI's
    # start-up needs neither dataclasses nor the inspect module it pulls in;
    # the harness imports signal and traceback only on the paths that use
    # them; a fresh interpreter, since pytest itself imports all four
    src = Path(hstarlib.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = (
        "import hstarlib.cli, sys; "
        "guarded = {'dataclasses', 'inspect', 'hstarlib.memo', 'signal', 'traceback'}; "
        "print(*sorted(guarded & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
