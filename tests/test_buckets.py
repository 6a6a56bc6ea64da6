"""Classic FM gain bucket structure."""

import random

import pytest

from repro.fm import FlatGainBuckets


#: Cell-id capacity for the hand-written cases (ids stay below it).
CAPACITY = 16


class LifoModel:
    """Reference model: one Python list per gain, popped from the tail.

    The order the classical FM bucket promises, written as plainly as
    possible: the most recently inserted cell of the highest non-empty
    bucket comes first.
    """

    def __init__(self, max_gain):
        self.max_gain = max_gain
        self.stacks = {g: [] for g in range(-max_gain, max_gain + 1)}
        self.gain = {}

    def insert(self, cell, gain):
        self.stacks[gain].append(cell)
        self.gain[cell] = gain

    def remove(self, cell):
        self.stacks[self.gain.pop(cell)].remove(cell)

    def update(self, cell, gain):
        self.remove(cell)
        self.insert(cell, gain)

    def pop_max(self):
        for g in range(self.max_gain, -self.max_gain - 1, -1):
            if self.stacks[g]:
                cell = self.stacks[g].pop()
                del self.gain[cell]
                return cell
        return None

    def order(self):
        return [
            cell
            for g in range(self.max_gain, -self.max_gain - 1, -1)
            for cell in reversed(self.stacks[g])
        ]

    def max_bucket(self):
        for g in range(self.max_gain, -self.max_gain - 1, -1):
            if self.stacks[g]:
                return list(reversed(self.stacks[g]))
        return []


class TestBasics:
    def test_insert_and_peek(self):
        b = FlatGainBuckets(3, CAPACITY)
        b.insert(10, 1)
        b.insert(11, 3)
        b.insert(12, -2)
        assert b.peek_max() == 11
        assert b.max_gain_value() == 3
        assert len(b) == 3
        assert 10 in b and 99 not in b

    def test_lifo_within_bucket(self):
        b = FlatGainBuckets(2, CAPACITY)
        b.insert(1, 0)
        b.insert(2, 0)
        b.insert(3, 0)
        assert b.pop_max() == 3
        assert b.pop_max() == 2
        assert b.pop_max() == 1
        assert b.pop_max() is None

    def test_gain_bounds_enforced(self):
        b = FlatGainBuckets(2, CAPACITY)
        with pytest.raises(ValueError, match="outside"):
            b.insert(1, 3)
        with pytest.raises(ValueError, match="outside"):
            b.insert(1, -3)

    def test_negative_max_gain(self):
        with pytest.raises(ValueError):
            FlatGainBuckets(-1, CAPACITY)

    def test_duplicate_insert_rejected(self):
        b = FlatGainBuckets(2, CAPACITY)
        b.insert(1, 0)
        with pytest.raises(ValueError, match="already"):
            b.insert(1, 1)


class TestUpdates:
    def test_remove(self):
        b = FlatGainBuckets(2, CAPACITY)
        b.insert(1, 2)
        b.insert(2, 1)
        b.remove(1)
        assert b.peek_max() == 2
        assert 1 not in b

    def test_update_moves_bucket(self):
        b = FlatGainBuckets(3, CAPACITY)
        b.insert(1, 0)
        b.insert(2, 1)
        b.update(1, 3)
        assert b.peek_max() == 1
        assert b.gain_of(1) == 3

    def test_adjust(self):
        b = FlatGainBuckets(3, CAPACITY)
        b.insert(1, 0)
        b.adjust(1, 2)
        assert b.gain_of(1) == 2
        b.adjust(1, 0)  # no-op
        assert b.gain_of(1) == 2

    def test_top_pointer_recovers_after_removals(self):
        b = FlatGainBuckets(3, CAPACITY)
        b.insert(1, 3)
        b.insert(2, -1)
        b.remove(1)
        assert b.max_gain_value() == -1
        b.insert(3, 2)
        assert b.peek_max() == 3

    def test_iter_from_max_order(self):
        b = FlatGainBuckets(3, CAPACITY)
        b.insert(1, -1)
        b.insert(2, 2)
        b.insert(3, 2)
        b.insert(4, 0)
        assert list(b.iter_from_max()) == [3, 2, 4, 1]

    def test_clear(self):
        b = FlatGainBuckets(2, CAPACITY)
        b.insert(1, 1)
        b.clear()
        assert len(b) == 0
        assert b.peek_max() is None
        b.insert(1, -2)
        assert b.peek_max() == 1


class TestIterMaxBucket:
    def test_yields_only_top_bucket(self):
        b = FlatGainBuckets(3, CAPACITY)
        b.insert(1, -1)
        b.insert(2, 2)
        b.insert(3, 2)
        b.insert(4, 0)
        assert list(b.iter_max_bucket()) == [3, 2]

    def test_empty(self):
        b = FlatGainBuckets(2, CAPACITY)
        assert list(b.iter_max_bucket()) == []

    def test_settles_after_removal(self):
        b = FlatGainBuckets(2, CAPACITY)
        b.insert(1, 2)
        b.insert(2, 0)
        b.insert(3, 0)
        b.remove(1)
        assert list(b.iter_max_bucket()) == [3, 2]

    def test_flat_matches_object(self):
        """``FlatGainBuckets`` walks its buckets like :class:`LifoModel`."""
        rng = random.Random(7)
        model = LifoModel(4)
        flat = FlatGainBuckets(4, 64)
        for _ in range(500):
            r = rng.random()
            if r < 0.5 or not model.gain:
                cell = rng.randrange(64)
                if cell in model.gain:
                    continue
                gain = rng.randrange(-4, 5)
                model.insert(cell, gain)
                flat.insert(cell, gain)
            elif r < 0.75:
                cell = rng.choice(sorted(model.gain))
                gain = rng.randrange(-4, 5)
                model.update(cell, gain)
                flat.update(cell, gain)
            else:
                cell = rng.choice(sorted(model.gain))
                model.remove(cell)
                flat.remove(cell)
            assert list(flat.iter_max_bucket()) == model.max_bucket()
            assert list(flat.iter_from_max()) == model.order()
