"""A bounded FIFO used for every hardware queue in the model.

The request queue, response queue, ``hit_buffer`` and ``sent_reqs`` structures
of the paper are all bounded FIFOs; modelling them with one class keeps
capacity accounting and occupancy statistics uniform.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional, TypeVar

T = TypeVar("T")


class BoundedFifo(deque[T]):
    """A FIFO with a fixed capacity.

    ``push`` returns ``False`` instead of raising when the queue is full so
    hardware back-pressure can be modelled without exceptions in the hot path.
    The queue *is* a ``collections.deque`` (oldest element first), so ``len``,
    truth tests, indexing and iteration run in C; only the capacity-checked
    operations are Python.
    """

    __slots__ = ("capacity", "peak_occupancy", "total_pushes")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"FIFO capacity must be positive, got {capacity}")
        super().__init__()
        self.capacity = int(capacity)
        self.peak_occupancy = 0
        self.total_pushes = 0

    # -- capacity -----------------------------------------------------------------
    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self)

    # -- mutation -----------------------------------------------------------------
    def push(self, item: T) -> bool:
        """Append ``item``; returns ``False`` (and drops nothing) when full."""

        size = len(self)
        if size >= self.capacity:
            return False
        self.append(item)
        self.total_pushes += 1
        if size >= self.peak_occupancy:
            self.peak_occupancy = size + 1
        return True

    #: Remove and return the oldest element (``deque.popleft``).
    pop = deque.popleft

    def pop_index(self, index: int) -> T:
        """Remove and return the element at ``index`` (0 = oldest).

        Arbiters that reorder requests (balanced / MSHR-aware policies) select
        an arbitrary queue element; ``del`` on a deque is O(n) with a very
        small constant, which is fine for the 12-entry request queues of the
        paper's configuration.
        """

        if index < 0 or index >= len(self):
            raise IndexError(f"pop_index({index}) on FIFO of length {len(self)}")
        if index == 0:
            return self.popleft()
        item = self[index]
        del self[index]
        return item

    def peek(self, index: int = 0) -> T:
        return self[index]

    def extend(self, items: Iterable[T]) -> int:  # type: ignore[override]
        """Push items until the queue fills; returns how many were accepted
        (unlike ``deque.extend``, which returns nothing and never refuses)."""

        accepted = 0
        for item in items:
            if not self.push(item):
                break
            accepted += 1
        return accepted

    # -- inspection ---------------------------------------------------------------
    def find(self, predicate: Callable[[T], bool]) -> Optional[int]:
        """Return the index of the first element satisfying ``predicate``."""

        for i, item in enumerate(self):
            if predicate(item):
                return i
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundedFifo({list(self)!r}, capacity={self.capacity})"
