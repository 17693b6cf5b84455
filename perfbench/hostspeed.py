"""The host's speed, sampled all along a measurement by a probe process.

On a shared host the speed of this process's CPU changes by up to 3x
within seconds, as other tenants load the same physical cores.  Probes timed
only between runs catch the speed at the run's edges, not during the run.  So
a forked child, pinned to the same CPU as the benchmark, times a small fixed
loop of the benchmark's own every ``PERIOD_S`` for as long as the benchmark
runs.  It leaves each sample (its end time and CPU seconds) in shared memory.

Each measured interval is then scaled to a reference host speed by the mean
probe time over the samples taken inside it -- the mean, because the
interval's host seconds add up the host's slowness over the interval::

    reference seconds = host seconds x (REF_S / mean probe seconds) ** EXPONENT

The probe is timed in CPU seconds, like the benchmark.  It takes about 4% of
the CPU, which the benchmark's CPU seconds leave out.  The program's own code
is not in the probe, so a change to the program moves the scaled times in
full.

The child is one process that sleeps between samples.  It exits when it is
told to stop or when the benchmark's process goes away.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time

#: Iterations of one probe loop, and the pause between two loops.
ITERATIONS = 2000
PERIOD_S = 0.01
#: Mean probe seconds at the reference host speed, about that of an unloaded
#: 2-vCPU Xeon virtual machine.
REF_S = 0.00022
#: Under heavy load the probe slows a little more than the program.  On a
#: 2-vCPU Xeon virtual machine, across an unloaded host and loads from other
#: tenants that made the mean probe time 1.3 to 2.9x longer (and the runs 1.3
#: to 2.4x longer), this power kept each workload's scaled median within -6%
#: and +4% of its unloaded value; a power of 1 read up to 15% low under the
#: heaviest load.
EXPONENT = 0.9
#: The probe must have taken MIN_SAMPLES samples within this time of starting.
START_TIMEOUT_S = 30.0
#: Samples kept: enough for the longest run without wrapping.
CAPACITY = 1 << 16
#: An interval shorter than this many samples (a quick set-up) is scaled by
#: the most recent ones.
MIN_SAMPLES = 8


class _Slot:
    __slots__ = ("key", "count")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0


def probe_once() -> int:
    """Interpreter work shaped like the simulator's: objects, dicts, queues."""

    slots: dict[int, _Slot] = {}
    queue: list[_Slot] = []
    total = 0
    for i in range(ITERATIONS):
        key = i & 255
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = _Slot(key)
        slot.count += 1
        queue.append(slot)
        if len(queue) > 64:
            total += queue.pop(0).count
    return total


def _sample(ends, seconds, count, stop, parent: int) -> None:
    """The child's loop: one probe sample every PERIOD_S until stopped."""

    clock = time.process_time
    while not stop.value and os.getppid() == parent:
        start = clock()
        probe_once()
        elapsed = clock() - start
        slot = count.value % CAPACITY
        ends[slot] = time.perf_counter()
        seconds[slot] = elapsed
        count.value += 1
        time.sleep(PERIOD_S)


class HostSpeed:
    """Factors from host seconds to seconds at the reference host speed.

    Use it as a context manager around the whole measurement, construct it
    before the program is imported, and call :meth:`scale` at the end of each
    measured interval.  Entering it pins this process to one CPU, the one the
    probe shares.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []
        self.samples: list[float] = []
        ctx = multiprocessing.get_context("fork")
        self._ends = ctx.RawArray("d", CAPACITY)
        self._seconds = ctx.RawArray("d", CAPACITY)
        self._count = ctx.RawValue("q", 0)
        self._stop = ctx.RawValue("b", 0)
        self._child = ctx.Process(
            target=_sample,
            args=(self._ends, self._seconds, self._count, self._stop, os.getpid()),
            daemon=True,
        )
        self._read = 0
        self._mark = 0.0

    def __enter__(self) -> HostSpeed:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._child.start()
        deadline = time.monotonic() + START_TIMEOUT_S
        while self._count.value < MIN_SAMPLES:
            if not self._child.is_alive() or time.monotonic() > deadline:
                self.__exit__()
                raise RuntimeError("the host-speed probe took no samples")
            time.sleep(PERIOD_S)
        self._collect()
        self._mark = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.value = 1
        self._child.join(timeout=10)
        if self._child.is_alive():
            self._child.kill()
            self._child.join()

    def _collect(self) -> list[tuple[float, float]]:
        """The samples taken since the last call, as (end, seconds)."""

        count = self._count.value
        new = [
            (self._ends[i % CAPACITY], self._seconds[i % CAPACITY])
            for i in range(max(self._read, count - CAPACITY), count)
        ]
        self._read = count
        self.samples.extend(s for _, s in new)
        return new

    def scale(self) -> float:
        """Factor for the interval since the previous call (or since entry)."""

        end = time.perf_counter()
        inside = [s for t, s in self._collect() if self._mark <= t <= end]
        if len(inside) < MIN_SAMPLES:
            inside = self.samples[-MIN_SAMPLES:]
        factor = (REF_S / statistics.fmean(inside)) ** EXPONENT
        self.factors.append(factor)
        self._mark = time.perf_counter()
        return factor

    def overall(self) -> float:
        """One factor for everything since entry."""

        self._collect()
        return (REF_S / statistics.fmean(self.samples)) ** EXPONENT

    def line(self, raw: str) -> str:
        return (
            f"host speed: probe mean {statistics.fmean(self.samples) * 1e3:.4g} ms over "
            f"{len(self.samples)} probe loops (reference {REF_S * 1e3:g} ms, power "
            f"{EXPONENT}), factors {min(self.factors):.4g}..{max(self.factors):.4g} "
            f"(median {statistics.median(self.factors):.4g}); {raw}"
        )
