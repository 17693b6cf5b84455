"""Throttle-controller interface.

A controller observes the cores and the LLC at its own sampling cadence and
adjusts each core's ``max_running_blocks`` (the "maximum running thread
blocks" of the paper).  The simulation engine calls :meth:`tick` every cycle;
controllers are expected to return immediately except at period boundaries.
Stalled cores sleep and credit their stall counters lazily, so a controller
settles them (:meth:`ThrottleController._settle_cores`) before reading those.
"""

from __future__ import annotations

from repro.cores.core import VectorCore
from repro.llc.llc import SlicedLLC


class ThrottleController:
    """Base class: no throttling (the unoptimized configuration)."""

    name = "none"

    def __init__(self) -> None:
        self.cores: list[VectorCore] = []
        self.llc: SlicedLLC | None = None
        self.num_slices = 0
        self.adjustments = 0          # number of max_tb changes applied
        self.samples = 0              # number of sampling-period evaluations

    def attach(self, cores: list[VectorCore], llc: SlicedLLC) -> None:
        """Bind the controller to the system it throttles."""

        self.cores = cores
        self.llc = llc
        self.num_slices = len(llc.slices)
        self.on_attach()

    def on_attach(self) -> None:
        """Hook for subclasses (initial state, baseline snapshots)."""

    def tick(self, cycle: int) -> None:
        """Called once per simulated cycle."""

    # -- helpers shared by subclasses -----------------------------------------------------
    def _settle_cores(self, cycle: int) -> None:
        """Credit sleeping cores' stall counters through ``cycle``; call before
        reading them (the cores already ticked this cycle)."""

        for core in self.cores:
            core.settle(cycle + 1)

    def _set_core_limit(self, core: VectorCore, value: int) -> None:
        before = core.max_running_blocks
        core.set_max_running_blocks(value)
        if core.max_running_blocks != before:
            self.adjustments += 1

    def _adjust_core_limit(self, core: VectorCore, delta: int) -> None:
        if delta == 0:
            return
        self._set_core_limit(core, core.max_running_blocks + delta)


class NullThrottleController(ThrottleController):
    """Explicit alias for the unoptimized configuration."""

    name = "none"
