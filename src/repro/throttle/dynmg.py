"""Two-level dynamic multi-gear throttling ("dynmg", §4.2) -- the paper's policy.

Level 1 (global, every ``sampling_period`` cycles): classify system contention
from the LLC stall ratio, move the gear (Algorithm 1) and throttle the fastest
cores -- those whose requests the LLC served the most during the last period
(largest progress-counter increase).

Level 2 (in-core, every ``sub_period`` cycles): each *throttled* core adjusts
its own maximum running thread blocks using the DYNCTA-style C_mem / C_idle
rules with the LLM-tuned thresholds of Table 4.  Cores that are not throttled
run at the full window count.
"""

from __future__ import annotations

from repro.config.policies import InCoreThrottleParams, MultiGearParams
from repro.throttle.base import ThrottleController
from repro.throttle.incore import InCoreThrottle
from repro.throttle.multigear import MultiGearState


class DynMgController(ThrottleController):
    """Two-level dynamic multi-gear throttling controller."""

    name = "dynmg"

    def __init__(self, multigear: MultiGearParams, incore: InCoreThrottleParams) -> None:
        super().__init__()
        self.params = multigear.validate()
        self.incore_params = incore.validate()
        self.state = MultiGearState(params=multigear)
        self.incore = InCoreThrottle(params=incore)
        self.throttled_cores: set[int] = set()
        self._last_stall_total = 0
        self._last_progress: list[int] = []
        self._next_sample = multigear.sampling_period
        self._next_sub = incore.sub_period

    def on_attach(self) -> None:
        self._last_progress = [0] * len(self.cores)
        self.throttled_cores = set()

    # ------------------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        if cycle >= self._next_sample:
            self._global_sample(cycle)
            self._next_sample += self.params.sampling_period
        if cycle >= self._next_sub:
            self._sub_period_sample(cycle)
            self._next_sub += self.incore_params.sub_period

    # -- level 1: global gear + fastest-core selection ---------------------------------
    def _global_sample(self, cycle: int) -> None:
        assert self.llc is not None
        self.samples += 1
        # The slices already ticked this cycle.
        stall_total = self.llc.stall_cycles_total(cycle + 1)
        stall_delta = stall_total - self._last_stall_total
        self._last_stall_total = stall_total
        window = self.params.sampling_period * max(1, self.num_slices)
        stall_ratio = stall_delta / window

        self.state.update(stall_ratio, cycle)
        count = self.state.throttled_core_count(len(self.cores))

        progress = self.llc.progress_by_core()
        deltas = [p - last for p, last in zip(progress, self._last_progress, strict=True)]
        self._last_progress = progress

        # Throttle the cores that made the most progress during the last period.
        order = sorted(range(len(self.cores)), key=lambda i: deltas[i], reverse=True)
        new_throttled = set(order[:count])

        for core in self.cores:
            if core.core_id in new_throttled:
                core.throttled = True
            else:
                core.throttled = False
                # Released cores immediately return to the full window count.
                self._set_core_limit(core, core.config.num_inst_windows)
        self.throttled_cores = new_throttled

    # -- level 2: in-core thread-block adjustment -----------------------------------------
    def _sub_period_sample(self, cycle: int) -> None:
        self._settle_cores(cycle)
        for core in self.cores:
            delta = self.incore.evaluate(
                core, throttled=core.throttled, max_blocks=core.max_running_blocks
            )
            if delta:
                self._adjust_core_limit(core, delta)
