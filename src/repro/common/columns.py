"""Read-only record views over logs stored as columns (DESIGN.md §17).

An append-only log that keeps one object per operation keeps as many
GC-tracked containers as it has history.  The logs of this package keep
one buffer per *field* instead, and hand readers a :class:`RecordView`:
a sequence that builds the record a reader asks for when it asks.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import Iterator


class RecordView(Sequence):
    """A log's records as a sequence, minted on demand and never kept.

    A subclass says how many rows its log holds (``__len__``) and how to
    mint the records of a slice of them (:meth:`_rows`); index, negative
    index, slice (a ``list``), iteration, ``in`` and ``reversed`` follow.
    The view is live — it reads the log's columns at the moment of the
    call — and equals a ``list`` or another view of equal records.
    """

    __slots__ = ()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._rows(index))
        row = range(len(self))[index]  # resolves negatives, raises IndexError
        return next(self._rows(slice(row, row + 1)))

    def __iter__(self) -> Iterator:
        return self._rows(slice(None))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RecordView, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))
