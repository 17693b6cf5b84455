"""Speculation hardware of the MSHR-aware arbiter (§4.3.1).

Two small structures let the arbiter *predict* the fate of a queued request
before the actual cache / MSHR lookup:

* :class:`HitBuffer` -- a FIFO of recently determined cache hits.  A queued
  request whose line appears here is speculated to be a cache hit.
* :class:`SentReqs` -- a FIFO of requests recently sent into the slice
  pipeline.  A cache-missing request only becomes visible in the MSHR after
  ``hit_latency + mshr_latency`` cycles; until then the MSHR snapshot is stale,
  so sent_reqs supplies the missing information.  Each entry carries the
  speculated-hit bit of the request, which masks it out of the MSHR view
  (speculated hits never allocate MSHR entries).
"""

from __future__ import annotations

from collections import deque


class HitBuffer:
    """FIFO of line addresses of recent cache hits, with O(1) membership."""

    __slots__ = ("capacity", "_fifo", "counts", "insertions")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("HitBuffer capacity must be positive")
        self.capacity = capacity
        self._fifo: deque[int] = deque()
        #: line address -> copies in the FIFO; a line is present iff it is a key.
        self.counts: dict[int, int] = {}
        self.insertions = 0

    def record_hit(self, line_addr: int) -> None:
        """Record a newly determined cache hit, evicting the oldest if full."""

        counts = self.counts
        if len(self._fifo) >= self.capacity:
            old = self._fifo.popleft()
            left = counts[old] - 1
            if left:
                counts[old] = left
            else:
                del counts[old]
        self._fifo.append(line_addr)
        counts[line_addr] = counts.get(line_addr, 0) + 1
        self.insertions += 1

    def contains(self, line_addr: int) -> bool:
        return line_addr in self.counts

    def __len__(self) -> int:
        return len(self._fifo)


class SentReqs:
    """FIFO of recently selected requests, visible until the MSHR catches up.

    ``mshr_lines`` maps the line of every unexpired entry whose speculated-hit
    bit is clear to the number of such entries; it is kept up to date as
    entries are recorded and dropped, so readers need not rebuild it.
    """

    __slots__ = ("capacity", "lifetime", "_fifo", "mshr_lines")

    def __init__(self, capacity: int, lifetime: int) -> None:
        if capacity <= 0:
            raise ValueError("SentReqs capacity must be positive")
        if lifetime <= 0:
            raise ValueError("SentReqs lifetime must be positive")
        self.capacity = capacity
        self.lifetime = lifetime
        #: (expiry_cycle, line_addr, speculated_hit), oldest first.
        self._fifo: deque[tuple[int, int, bool]] = deque()
        self.mshr_lines: dict[int, int] = {}

    def record(self, line_addr: int, speculated_hit: bool, cycle: int) -> None:
        """Record a selected request; it stays visible for ``lifetime`` cycles."""

        self.expire(cycle)
        if len(self._fifo) >= self.capacity:
            self._drop_oldest()
        self._fifo.append((cycle + self.lifetime, line_addr, speculated_hit))
        if not speculated_hit:
            lines = self.mshr_lines
            lines[line_addr] = lines.get(line_addr, 0) + 1

    def expire(self, cycle: int) -> None:
        """Drop entries whose MSHR-visibility window has elapsed."""

        fifo = self._fifo
        while fifo and fifo[0][0] <= cycle:
            self._drop_oldest()

    def _drop_oldest(self) -> None:
        _, line_addr, speculated_hit = self._fifo.popleft()
        if not speculated_hit:
            lines = self.mshr_lines
            left = lines[line_addr] - 1
            if left:
                lines[line_addr] = left
            else:
                del lines[line_addr]

    def pending_mshr_lines(self, cycle: int) -> set[int]:
        """Lines of in-flight requests that will occupy MSHR entries.

        Entries whose speculated-hit bit is set are masked out (step 1 of
        Fig 5): a cache hit never reaches the MSHR.
        """

        self.expire(cycle)
        return set(self.mshr_lines)

    def __len__(self) -> int:
        return len(self._fifo)
