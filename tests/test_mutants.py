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


def test_first_failure_reads_a_parametrized_id_whole(tmp_path):
    report = tmp_path / "report.xml"
    report.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">'
        '<testcase classname="tests.test_a" name="test_passes" time="0.1" />'
        '<testcase classname="tests.test_b.TestSplit" '
        'name="test_message[split-a_P - b_P does not reverse h*]" time="0.2">'
        '<failure message="AssertionError">trace</failure></testcase>'
        '<testcase classname="tests.test_c" name="test_later" time="0.1">'
        '<error message="boom">trace</error></testcase>'
        "</testsuite></testsuites>"
    )
    assert mutants.first_failure(report) == (
        "tests.test_b.TestSplit::test_message[split-a_P - b_P does not reverse h*]"
    )
    assert mutants.first_failure(tmp_path / "missing.xml") is None
    # a collection error is a case with no class name, named by its module
    report.write_text(
        '<testsuites><testsuite name="pytest"><testcase classname="" name="tests.test_d">'
        '<error message="collection failure">trace</error></testcase></testsuite></testsuites>'
    )
    assert mutants.first_failure(report) == "tests.test_d"
