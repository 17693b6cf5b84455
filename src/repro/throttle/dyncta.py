"""DYNCTA baseline (Kayiran et al., PACT 2013), as characterised in §2.5 / §7.4.

Every core monitors its own idle cycles and memory-contention stall cycles with
its performance counters and adjusts its thread-block limit each sampling
period: excessive idleness relaxes throttling, heavy memory contention
tightens it.  The policy applies to *all* cores (no spatial dimension) and uses
thresholds swept over general-purpose workloads, which is why it reacts only
when contention is far more severe than the LLM-decode norm.
"""

from __future__ import annotations

from repro.config.policies import DynctaParams
from repro.throttle.base import ThrottleController


class DynctaController(ThrottleController):
    """Per-core dynamic thread-block throttling, applied to every core."""

    name = "dyncta"

    def __init__(self, params: DynctaParams) -> None:
        super().__init__()
        self.params = params.validate()
        self._next_sample = params.sampling_period
        self._last_mem: list[int] = []
        self._last_idle: list[int] = []

    def on_attach(self) -> None:
        self._last_mem = [0] * len(self.cores)
        self._last_idle = [0] * len(self.cores)

    def tick(self, cycle: int) -> None:
        if cycle < self._next_sample:
            return
        self._next_sample += self.params.sampling_period
        self.samples += 1
        self._settle_cores(cycle)
        for i, core in enumerate(self.cores):
            mem_delta = core.stat_mem_stall_cycles - self._last_mem[i]
            idle_delta = core.stat_idle_cycles - self._last_idle[i]
            self._last_mem[i] = core.stat_mem_stall_cycles
            self._last_idle[i] = core.stat_idle_cycles

            if idle_delta > self.params.c_idle_threshold:
                # The core starves for work: relax throttling.
                self._adjust_core_limit(core, +1)
            elif mem_delta > self.params.c_mem_high:
                self._adjust_core_limit(core, -1)
            elif mem_delta < self.params.c_mem_low:
                self._adjust_core_limit(core, +1)
