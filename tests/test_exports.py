"""The package's public export list."""

import hstarlib


def test_all_names_resolve_and_are_unique_and_sorted():
    names = hstarlib.__all__
    assert [name for name in names if not hasattr(hstarlib, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
