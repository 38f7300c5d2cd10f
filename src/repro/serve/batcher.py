"""The dynamic micro-batching core: pure, synchronous, clock-free.

This is the scheduler's brain, deliberately free of asyncio, clocks, and
I/O: callers ``add`` ``(key, item)`` pairs and ``take`` batches whenever
a worker is free to run one. Keeping the policy pure makes it exhaustively
testable — ``tests/test_serve_property.py`` drives it with
hypothesis-generated arrival/take interleavings and proves the laws
(nothing lost, nothing duplicated, no batch over size, homogeneous keys,
oldest-first order, no starvation) without a single sleep.

Policy (pull-based batching: a batch is formed when a worker asks, never
on a timer):

- arrivals are held per key, in arrival order;
- ``take`` picks the key whose oldest held item arrived first and hands
  out up to ``max_batch_size`` of its items; a remainder keeps its age
  priority: it ranks by its own oldest item, not by when it was split;
- ``drain`` takes until nothing is held.

An idle consumer therefore takes a lone arrival at once, while a busy one
finds everything that arrived during its last batch waiting to ride the
next one together.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Generic, Hashable, TypeVar

from repro.errors import ConfigurationError

__all__ = ["Batch", "MicroBatcher"]

K = TypeVar("K", bound=Hashable)
T = TypeVar("T")


@dataclasses.dataclass(frozen=True)
class Batch(Generic[K, T]):
    """One taken batch: a key-homogeneous group of items in arrival order."""

    key: K
    items: tuple[T, ...]

    def __len__(self) -> int:
        return len(self.items)


class MicroBatcher(Generic[K, T]):
    """Holds arrivals per key; hands out the oldest key's items on ``take``."""

    def __init__(self, max_batch_size: int) -> None:
        if max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        self.max_batch_size = max_batch_size
        # Each held item carries its arrival number, which orders keys by
        # the age of their oldest item without reading a clock.
        self._held: dict[K, deque[tuple[int, T]]] = {}
        self._arrivals = 0

    def pending_count(self) -> int:
        """Items currently held (added and not yet taken)."""
        return sum(len(held) for held in self._held.values())

    def add(self, key: K, item: T) -> None:
        """Hold one item under its key until a ``take`` hands it out."""
        self._held.setdefault(key, deque()).append((self._arrivals, item))
        self._arrivals += 1

    def take(self) -> Batch[K, T] | None:
        """Up to ``max_batch_size`` items of the key holding the oldest item.

        Returns ``None`` when nothing is held.
        """
        if not self._held:
            return None
        key = min(self._held, key=lambda k: self._held[k][0][0])
        held = self._held[key]
        count = min(len(held), self.max_batch_size)
        items = tuple(held.popleft()[1] for _ in range(count))
        if not held:
            del self._held[key]
        return Batch(key=key, items=items)

    def drain(self) -> list[Batch[K, T]]:
        """Take everything still held, oldest key first."""
        batches: list[Batch[K, T]] = []
        while (batch := self.take()) is not None:
            batches.append(batch)
        return batches

    def remove(self, key: K, item: T) -> bool:
        """Drop one held item; returns whether it was found and removed.

        An emptied key is closed so it can never be taken as a zero-item
        batch.
        """
        held = self._held.get(key)
        if held is None:
            return False
        for entry in held:
            if entry[1] == item:
                held.remove(entry)
                if not held:
                    del self._held[key]
                return True
        return False
