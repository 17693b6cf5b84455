"""The vector core model (§3.1 and the extended SimpleO3 front-end of §5).

Each core is a 128-element vector unit with a private streaming L1 and
``num_inst_windows`` instruction windows.  A thread block is assigned to a
window; when the window cannot issue (its next entry is still computing, its
data has not returned, or the interconnect back-pressures), the core switches
to another window -- the runtime scheduling mechanism the paper models.

Throttling controllers limit ``max_running_blocks``: windows beyond that count
keep their in-flight requests but may not issue new work, which shrinks the
core's active working set and its memory-request rate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.common.types import AccessType, MemRequest, MemResponse
from repro.config.system import CoreConfig
from repro.cores.l1 import L1Cache
from repro.cores.scheduler import ThreadBlockScheduler
from repro.cores.window import InstructionWindow

if TYPE_CHECKING:
    from repro.noc.interconnect import Interconnect

RequestSink = Callable[[MemRequest, int], bool]

# Outcomes of one issue attempt (:meth:`VectorCore._try_issue`).
_ISSUED = 0     # an entry advanced (memory request sent, L1 hit or pure compute)
_COMPUTE = 1    # the entry's compute has not finished yet
_WAIT = 2       # waiting on memory; nothing changed (a pending retry was rejected,
                # the window is full, or it drains its last responses)
_STAGED = 3     # a new request was prepared but back-pressured (now pending)


class VectorCore:
    """One vector core with instruction windows and a private L1.

    **Sleeping.**  A tick that changes nothing but a stall counter (no retire or
    refill, no issue, no compute, no newly prepared request) would repeat
    itself every cycle until something outside the core changes, so the core
    goes to sleep and :class:`~repro.sim.system.SimulatedSystem` stops ticking
    it.  It wakes on

    * :meth:`receive` (a response frees window space or drains a block);
    * a change of ``max_running_blocks``;
    * a credit on a slice one of its pending requests targets: the
      interconnect's port for that slice took a staged request (see
      :meth:`Interconnect.add_waiter`).

    The skipped cycles are credited to the stall counters lazily and exactly
    by :meth:`settle`, which every reader of those counters (throttle
    controllers, result collection) calls first.  A sleeping core that is
    ticked directly wakes first.
    """

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        l1: L1Cache,
        request_sink: RequestSink,
        scheduler: ThreadBlockScheduler,
        interconnect: Interconnect | None = None,
    ) -> None:
        config.validate()
        self.core_id = core_id
        self.config = config
        self.l1 = l1
        self.request_sink = request_sink
        self.scheduler = scheduler
        #: Wakes this core on slice credits and receives its credited rejects.
        self.interconnect = interconnect

        self.windows = [
            InstructionWindow(window_id=i, depth=config.inst_window_depth)
            for i in range(config.num_inst_windows)
        ]
        #: Maximum number of windows allowed to issue (set by throttling).
        self.max_running_blocks = config.num_inst_windows
        #: Set by the global multi-gear controller; read by the in-core controller.
        self.throttled = False
        self._rr_pointer = 0
        self._req_window: dict[int, int] = {}
        #: The running windows (the first ``max_running_blocks`` that hold a
        #: thread block); None after a retire, refill or limit change.
        self._running: list[InstructionWindow] | None = None

        # -- sleep state -------------------------------------------------------------------
        #: True while the system may skip this core's ticks.
        self.asleep = False
        #: First cycle not yet credited to the stall counters (-1: none pending).
        self._sleep_from = -1
        #: Slept with no thread block and a drained scheduler (else: memory stall).
        self._sleep_idle = False
        #: Running windows whose pending request was rejected on every slept cycle.
        self._sleep_rejects = 0
        #: ``self.wake``, bound once: a sleep registers it without allocating.
        self._wake = self.wake

        # -- statistics (cumulative; controllers take period deltas) --------------------
        self.stat_issued_requests = 0
        self.stat_l1_hits = 0
        self.stat_mem_stall_cycles = 0     # C_mem: all running blocks wait on memory
        self.stat_compute_cycles = 0       # cycles blocked only by compute
        self.stat_idle_cycles = 0          # C_idle: no thread block available to run
        self.stat_active_cycles = 0        # cycles with at least one issue
        self.stat_completed_blocks = 0
        self.stat_backpressure_stalls = 0
        self.stat_first_block_cycles = -1  # duration of the first completed block (LCS)
        self._first_block_start = -1

    # ------------------------------------------------------------------------------
    # throttling interface
    # ------------------------------------------------------------------------------
    def set_max_running_blocks(self, value: int) -> None:
        value = max(1, min(self.config.num_inst_windows, value))
        if value != self.max_running_blocks:
            self.max_running_blocks = value
            self._running = None
            self.asleep = False

    def adjust_max_running_blocks(self, delta: int) -> None:
        self.set_max_running_blocks(self.max_running_blocks + delta)

    # ------------------------------------------------------------------------------
    # sleep / wake
    # ------------------------------------------------------------------------------
    def wake(self) -> None:
        """Have the system tick this core again; the skipped cycles are
        credited when it next ticks or settles."""

        self.asleep = False

    def settle(self, cycle: int) -> None:
        """Credit the stall counters with the cycles slept before ``cycle``.

        A no-op for a core that does not sleep.  Readers of the stall counters
        call this first: the throttle controllers with ``cycle + 1`` (the
        cores already ticked this cycle), result collection with the run's
        cycle count.
        """

        start = self._sleep_from
        if start < 0 or cycle <= start:
            return
        skipped = cycle - start
        self._sleep_from = cycle
        if self._sleep_idle:
            self.stat_idle_cycles += skipped
            return
        self.stat_mem_stall_cycles += skipped
        if self._sleep_rejects:
            rejects = skipped * self._sleep_rejects
            self.stat_backpressure_stalls += rejects
            if self.interconnect is not None:
                self.interconnect.backpressure_rejects += rejects

    def _sleep(self, cycle: int, running: list[InstructionWindow]) -> None:
        self.asleep = True
        self._sleep_from = cycle + 1
        self._sleep_idle = not running
        rejects = 0
        interconnect = self.interconnect
        for window in running:
            pending = window.pending_request
            if pending is not None:
                rejects += 1
                if interconnect is not None:
                    interconnect.add_waiter(pending.addr, self._wake)
        self._sleep_rejects = rejects

    # ------------------------------------------------------------------------------
    # response delivery (from the interconnect)
    # ------------------------------------------------------------------------------
    def receive(self, resp: MemResponse, cycle: int) -> None:
        self.asleep = False
        window_id = self._req_window.pop(resp.req_id, None)
        if window_id is not None:
            window = self.windows[window_id]
            if window.outstanding > 0:
                window.outstanding -= 1
        if resp.rw == AccessType.READ:
            self.l1.fill(self.l1.line_addr(resp.line_addr))

    # ------------------------------------------------------------------------------
    # per-cycle execution
    # ------------------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        if self._sleep_from >= 0:
            self.settle(cycle)
            self._sleep_from = -1
            self.asleep = False
        changed = self._retire_and_refill(cycle)

        # This is the hottest loop of the whole simulator, so attribute access
        # is kept to a minimum.
        running = self._running
        if running is None:
            running = []
            limit = self.max_running_blocks
            for window in self.windows:
                if window.tb is not None:
                    running.append(window)
                    if len(running) >= limit:
                        break
            self._running = running
        if not running:
            # No thread block and a drained scheduler: idle to the end of the run.
            self.stat_idle_cycles += 1
            self._sleep(cycle, running)
            return

        issued = 0
        blocked_on_compute = False
        n = len(running)
        rr = self._rr_pointer
        for k in range(n):
            window = running[(rr + k) % n]
            result = self._try_issue(window, cycle)
            if result == _ISSUED:
                issued += 1
                self._rr_pointer = (rr + k) % n
                if issued >= self.config.issue_width:
                    break
            elif result == _COMPUTE:
                blocked_on_compute = True
            elif result == _STAGED:
                changed = True

        if issued:
            self.stat_active_cycles += 1
            self.stat_issued_requests += issued
        elif blocked_on_compute:
            self.stat_compute_cycles += 1
        else:
            self.stat_mem_stall_cycles += 1
            if not changed:
                self._sleep(cycle, running)

    # -- helpers ---------------------------------------------------------------------------
    def _retire_and_refill(self, cycle: int) -> bool:
        """Retire drained blocks and refill at most one window; True when the
        window occupancy changed."""

        changed = False
        busy = 0
        free_window: InstructionWindow | None = None
        for window in self.windows:
            tb = window.tb
            if tb is None:
                if free_window is None:
                    free_window = window
                continue
            # Retire a drained thread block (all entries issued, all data back).
            if window.outstanding == 0 and window.cursor >= len(tb.entries):
                block = window.release()
                changed = True
                self.stat_completed_blocks += 1
                self.scheduler.notify_complete(block)
                if self.stat_first_block_cycles < 0:
                    self.stat_first_block_cycles = cycle - self._first_block_start
                if free_window is None:
                    free_window = window
            else:
                busy += 1
        if changed:
            self._running = None
        if free_window is None or busy >= self.max_running_blocks:
            return changed
        # Refill at most one window per cycle (the global scheduler hands out one
        # thread block per core per cycle, striping consecutive blocks across
        # cores the way a GPU CTA dispatcher does).
        block = self.scheduler.next_block(self.core_id)
        if block is None:
            return changed
        free_window.assign(block, cycle)
        self._running = None
        if self._first_block_start < 0:
            self._first_block_start = cycle
        return True

    def _try_issue(self, window: InstructionWindow, cycle: int) -> int:
        """Attempt one issue from ``window``; returns one of the ``_ISSUED`` /
        ``_COMPUTE`` / ``_WAIT`` / ``_STAGED`` outcomes."""

        tb = window.tb
        if tb is None or window.cursor >= len(tb.entries):
            return _WAIT  # draining: waiting for outstanding responses

        # A request rejected by interconnect back-pressure on an earlier cycle is
        # retried as-is (its L1 probe and trace-entry bookkeeping already happened).
        pending = window.pending_request
        if pending is not None:
            if not self.request_sink(pending, cycle):
                self.stat_backpressure_stalls += 1
                return _WAIT
            self._complete_send(window, pending)
            return _ISSUED

        entry = tb.entries[window.cursor]

        # Charge the entry's compute cost once, before its memory access issues.
        if not window.compute_charged and entry.compute_cycles > 0:
            window.compute_ready_cycle = cycle + entry.compute_cycles
            window.compute_charged = True
        if window.compute_charged and window.compute_ready_cycle > cycle:
            return _COMPUTE

        if not entry.has_access:
            window.cursor += 1
            window.compute_charged = False
            return _ISSUED

        if window.outstanding >= window.depth:
            return _WAIT

        if entry.rw == AccessType.READ and self.l1.access_read(entry.addr):
            # L1 hit: completes locally within the cycle (latency 1 absorbed).
            self.stat_l1_hits += 1
            window.cursor += 1
            window.compute_charged = False
            return _ISSUED

        if entry.rw == AccessType.WRITE:
            self.l1.access_write(entry.addr)

        req = MemRequest(
            addr=entry.addr,
            rw=entry.rw,
            core_id=self.core_id,
            tb_id=tb.tb_id,
            kind=entry.kind,
            size=entry.size,
            issue_cycle=cycle,
        )
        if not self.request_sink(req, cycle):
            self.stat_backpressure_stalls += 1
            window.pending_request = req
            return _STAGED
        self._complete_send(window, req)
        return _ISSUED

    def _complete_send(self, window: InstructionWindow, req: MemRequest) -> None:
        window.pending_request = None
        self._req_window[req.req_id] = window.window_id
        window.outstanding += 1
        window.cursor += 1
        window.compute_charged = False

    # ------------------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------------------
    @property
    def outstanding_requests(self) -> int:
        return sum(w.outstanding for w in self.windows)

    @property
    def busy(self) -> bool:
        return any(w.busy for w in self.windows)

    def counters(self) -> dict[str, int]:
        """Cumulative counters used by the throttling controllers."""

        return {
            "mem_stall": self.stat_mem_stall_cycles,
            "idle": self.stat_idle_cycles,
            "active": self.stat_active_cycles,
            "compute": self.stat_compute_cycles,
            "issued": self.stat_issued_requests,
            "completed_blocks": self.stat_completed_blocks,
        }
