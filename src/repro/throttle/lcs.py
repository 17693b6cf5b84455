"""LCS baseline (Lee et al., HPCA 2014 -- "lazy CTA scheduling").

LCS observes the execution of the first thread block on each core and derives a
fixed thread-block count for the rest of the run, with no further dynamic
tuning.  The per-core count is chosen so that the core has just enough blocks
to cover its observed issue utilisation: a compute-heavy block needs few
companions, a memory-bound block (utilisation far below one) saturates at the
hardware window count -- which is why LCS barely deviates from the unoptimized
configuration on decode-stage attention (§6.3.1).
"""

from __future__ import annotations

from repro.common.mathutils import clamp
from repro.config.policies import LcsParams
from repro.throttle.base import ThrottleController


class LcsController(ThrottleController):
    """Observe the first completed thread block per core, then fix max_tb."""

    name = "lcs"

    def __init__(self, params: LcsParams) -> None:
        super().__init__()
        self.params = params.validate()
        self._decided: set[int] = set()
        self.chosen_limits: dict[int, int] = {}

    def on_attach(self) -> None:
        # Observation phase: every core starts with a single running block so the
        # first block's behaviour can be measured in isolation.
        for core in self.cores:
            self._set_core_limit(core, 1)
        self._decided = set()
        self.chosen_limits = {}

    def tick(self, cycle: int) -> None:
        if len(self._decided) == len(self.cores):
            return
        for core in self.cores:
            if core.core_id in self._decided:
                continue
            if core.stat_completed_blocks < self.params.observation_blocks:
                continue
            # Issue utilisation observed while the first block(s) ran.
            core.settle(cycle + 1)
            observed = max(1, core.stat_active_cycles + core.stat_mem_stall_cycles
                           + core.stat_compute_cycles)
            utilisation = core.stat_active_cycles / observed
            if utilisation <= 0.0:
                target = core.config.num_inst_windows
            else:
                # Enough blocks to cover the idle fraction, bounded by hardware.
                target = int(round(self.params.target_latency_factor / max(utilisation, 1e-6)))
            target = int(clamp(target, 1, core.config.num_inst_windows))
            self._set_core_limit(core, target)
            self.chosen_limits[core.core_id] = target
            self._decided.add(core.core_id)
            self.samples += 1
