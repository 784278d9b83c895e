"""Bounded memos by value, kept for a whole run.

The orientation route meets the same intermediates again and again: a
graph's checks sweep its orientations more than once, and orientations of
different graphs induce the same posets.  A :class:`Memo` maps a key that
fixes a value (a down-set mask, a count vector, an h*) to that value,
computed once.  Only immutable values are stored, since every caller gets
the same object.  A memo that reaches its ``maxsize`` empties before it
stores the next entry, so a long run holds at most one memo's worth.
"""

from __future__ import annotations

from typing import Callable, Hashable, TypeVar

T = TypeVar("T")


class Memo:
    """One bounded memo: ``memo(key, compute)`` is the value stored under
    ``key``, or ``compute()``, stored if it returns."""

    __slots__ = ("maxsize", "_entries")

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: dict = {}

    def __call__(self, key: Hashable, compute: Callable[[], T]) -> T:
        entries = self._entries
        value = entries.get(key)
        if value is None:
            if len(entries) >= self.maxsize:
                entries.clear()
            value = entries[key] = compute()
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def cache_clear(self) -> None:
        self._entries.clear()
