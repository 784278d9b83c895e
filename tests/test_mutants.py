"""The mutant list of ``tools/mutants.py`` still fits the source; no mutant runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


def test_names_are_unique():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_imports_nothing_from_the_library():
    source = (ROOT / "tools" / "mutants.py").read_text()
    assert "import hstarlib" not in source and "from hstarlib" not in source
