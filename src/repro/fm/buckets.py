"""Classic Fiduccia–Mattheyses gain bucket structure.

An array of stacks indexed by gain, with a max-gain pointer.  All
operations are O(1) amortized (the pointer only decreases between
insertions).  Cells within a bucket are popped LIFO, the organization the
paper retains from the classical algorithm.

Gains are bounded by the maximum cell degree: a cell incident to ``d``
nets has gain in ``[-d, +d]``.

:class:`FlatGainBuckets` realizes the stacks as the classical FM
*intrusive doubly-linked free lists* over flat int arrays (``prev`` /
``next`` indexed by cell, one head per gain): no node objects, O(1)
``remove``.  ``tests/test_buckets.py`` checks its iteration and
tie-break order against a plain list-of-stacks model over random op
sequences.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["FlatGainBuckets"]


class FlatGainBuckets:
    """Intrusive doubly-linked gain buckets over flat int arrays.

    Cells are linked through ``prev``/``next`` arrays indexed by cell id
    (one list head per gain), so ``remove`` is O(1).  LIFO order comes
    from inserting at the head and popping from the head: the head is
    always the most recently inserted cell of its bucket.

    Parameters
    ----------
    max_gain:
        Bound on ``|gain|``; buckets cover ``[-max_gain, +max_gain]``.
    capacity:
        Exclusive upper bound on cell ids (``hg.num_cells`` in practice);
        sizes the link arrays.
    """

    __slots__ = ("max_gain", "_capacity", "_head", "_next", "_prev",
                 "_slot", "_count", "_top")

    _ABSENT = -1

    def __init__(self, max_gain: int, capacity: int) -> None:
        if max_gain < 0:
            raise ValueError("max_gain must be non-negative")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.max_gain = max_gain
        self._capacity = capacity
        self._head: List[int] = [-1] * (2 * max_gain + 1)
        self._next: List[int] = [-1] * capacity
        self._prev: List[int] = [-1] * capacity
        # cell -> bucket index, _ABSENT when not stored.
        self._slot: List[int] = [self._ABSENT] * capacity
        self._count = 0
        self._top = -1

    def _index(self, gain: int) -> int:
        if not -self.max_gain <= gain <= self.max_gain:
            raise ValueError(
                f"gain {gain} outside [-{self.max_gain}, {self.max_gain}]"
            )
        return gain + self.max_gain

    def __len__(self) -> int:
        return self._count

    def __contains__(self, cell: int) -> bool:
        return (
            0 <= cell < self._capacity
            and self._slot[cell] != self._ABSENT
        )

    def gain_of(self, cell: int) -> int:
        """Current gain of a stored cell."""
        index = self._slot[cell]
        if index == self._ABSENT:
            raise KeyError(cell)
        return index - self.max_gain

    def insert(self, cell: int, gain: int) -> None:
        """Insert a cell with the given gain (cell must not be present)."""
        if self._slot[cell] != self._ABSENT:
            raise ValueError(f"cell {cell} already bucketed")
        index = self._index(gain)
        head = self._head[index]
        self._next[cell] = head
        self._prev[cell] = -1
        if head >= 0:
            self._prev[head] = cell
        self._head[index] = cell
        self._slot[cell] = index
        self._count += 1
        if index > self._top:
            self._top = index

    def remove(self, cell: int) -> None:
        """Remove a cell (top pointer settles lazily in pop/peek)."""
        index = self._slot[cell]
        if index == self._ABSENT:
            raise KeyError(cell)
        nxt = self._next[cell]
        prv = self._prev[cell]
        if prv >= 0:
            self._next[prv] = nxt
        else:
            self._head[index] = nxt
        if nxt >= 0:
            self._prev[nxt] = prv
        self._slot[cell] = self._ABSENT
        self._count -= 1

    def update(self, cell: int, new_gain: int) -> None:
        """Move a cell to a different gain bucket (re-inserted LIFO)."""
        self.remove(cell)
        self.insert(cell, new_gain)

    def adjust(self, cell: int, delta: int) -> None:
        """Shift a cell's gain by ``delta``."""
        if delta:
            index = self._slot[cell]
            if index == self._ABSENT:
                raise KeyError(cell)
            self.update(cell, index - self.max_gain + delta)

    def _settle_top(self) -> None:
        head = self._head
        while self._top >= 0 and head[self._top] < 0:
            self._top -= 1

    def peek_max(self) -> Optional[int]:
        """Cell with the highest gain (LIFO within the bucket), or None."""
        self._settle_top()
        if self._top < 0:
            return None
        return self._head[self._top]

    def max_gain_value(self) -> Optional[int]:
        """Highest gain currently stored, or None when empty."""
        self._settle_top()
        if self._top < 0:
            return None
        return self._top - self.max_gain

    def pop_max(self) -> Optional[int]:
        """Remove and return the highest-gain cell, or None when empty."""
        self._settle_top()
        if self._top < 0:
            return None
        cell = self._head[self._top]
        nxt = self._next[cell]
        self._head[self._top] = nxt
        if nxt >= 0:
            self._prev[nxt] = -1
        self._slot[cell] = self._ABSENT
        self._count -= 1
        return cell

    def iter_from_max(self):
        """Yield cells from the highest gain downwards (snapshot order).

        Head-first within each bucket (most recently inserted first).
        Mutating the structure while iterating is not supported.
        """
        self._settle_top()
        head = self._head
        nxt = self._next
        for index in range(self._top, -1, -1):
            cell = head[index]
            while cell >= 0:
                yield cell
                cell = nxt[cell]

    def iter_max_bucket(self):
        """Yield the cells of the highest non-empty bucket only.

        Head-first (most recently inserted first).  Lets callers resolve
        secondary tie-breaks among the max-gain candidates without
        touching lower buckets.  Mutating the structure while iterating
        is not supported.
        """
        self._settle_top()
        if self._top < 0:
            return
        nxt = self._next
        cell = self._head[self._top]
        while cell >= 0:
            yield cell
            cell = nxt[cell]

    def clear(self) -> None:
        """Empty the structure."""
        head = self._head
        nxt = self._next
        slot = self._slot
        for index in range(len(head)):
            cell = head[index]
            while cell >= 0:
                slot[cell] = self._ABSENT
                cell = nxt[cell]
            head[index] = -1
        self._count = 0
        self._top = -1
