"""Top-level simulation API.

:func:`simulate` is the single entry point most users need: give it a system, a
policy and either a workload (a trace is generated via the dataflow mapper) or
a ready-made trace, and it returns a :class:`SimResult` with every metric the
paper reports.
"""

from __future__ import annotations

from repro.common.errors import ConfigError, ConservationError
from repro.config.policies import PolicyConfig
from repro.config.system import SystemConfig
from repro.config.workload import WorkloadConfig
from repro.sim.engine import DEFAULT_MAX_CYCLES, SimulationEngine
from repro.sim.liveness import LivenessConfig
from repro.sim.results import CoreResult, SimResult
from repro.sim.system import SimulatedSystem
from repro.trace.generator import generate_trace
from repro.trace.threadblock import Trace


class Simulator:
    """Object-oriented wrapper around one simulation run."""

    def __init__(
        self,
        system: SystemConfig,
        policy: PolicyConfig,
        trace: Trace,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        label: str | None = None,
        workload_name: str | None = None,
        liveness: LivenessConfig | None = None,
    ) -> None:
        self.system_config = system
        self.policy = policy
        self.trace = trace
        self.max_cycles = max_cycles
        self.liveness = liveness
        self.label = label if label is not None else policy.label
        self.workload_name = workload_name or trace.name
        self.system = SimulatedSystem(system, policy, trace)

    def run(self, raise_on_stall: bool = True) -> SimResult:
        """Run to completion.

        With ``raise_on_stall=False`` a livelocked or guard-limited run
        returns a truncated :class:`SimResult` whose ``status`` records the
        termination kind instead of raising.
        """

        engine = SimulationEngine(
            self.system, max_cycles=self.max_cycles, liveness=self.liveness
        )
        report = engine.run(raise_on_stall=raise_on_stall)
        return self._collect(report.cycles, status=report.status.value)

    # -- result assembly ----------------------------------------------------------------------
    def _collect(self, cycles: int, status: str = "completed") -> SimResult:
        system = self.system
        cfg = self.system_config
        for core in system.cores:
            core.settle(cycles)
        core_results = tuple(
            CoreResult(
                core_id=core.core_id,
                issued_requests=core.stat_issued_requests,
                l1_hits=core.stat_l1_hits,
                mem_stall_cycles=core.stat_mem_stall_cycles,
                idle_cycles=core.stat_idle_cycles,
                active_cycles=core.stat_active_cycles,
                completed_blocks=core.stat_completed_blocks,
                final_max_running_blocks=core.max_running_blocks,
            )
            for core in system.cores
        )
        result = SimResult(
            label=self.label,
            workload=self.workload_name,
            cycles=cycles,
            frequency_ghz=cfg.frequency_ghz,
            llc=system.llc.stats(cycles),
            dram=system.dram.stats(),
            cores=core_results,
            thread_blocks=system.scheduler.total_blocks,
            total_requests_issued=sum(c.stat_issued_requests for c in system.cores),
            noc_requests=system.noc.requests_sent,
            noc_responses=system.noc.responses_sent,
            status=status,
            meta={
                "num_slices": cfg.l2.num_slices,
                "num_cores": cfg.core.num_cores,
                "l2_bytes": cfg.l2.size_bytes,
                "policy": self.policy.label,
                "throttle": self.policy.throttle.value,
                "arbitration": self.policy.arbitration.value,
            },
        )
        check_conservation(result, system)
        return result


def _law(law: str, detail: str, lhs: int, rhs: int) -> None:
    if lhs != rhs:
        raise ConservationError(law, detail, lhs, rhs)


def check_conservation(result: SimResult, system: SimulatedSystem) -> None:
    """Raise :class:`ConservationError` naming the first law ``result`` breaks.

    Every run: each core spends every cycle in exactly one of the active,
    compute, memory-stall and idle states.  Completed runs also drained every
    request: each one the LLC accepted was looked up once, each miss merged
    into or allocated one MSHR entry, each allocation read DRAM once, each NoC
    request got one response, and each issued trace entry was an L1 hit, a
    NoC request or a pure-compute bubble.
    """

    for core in system.cores:
        _law(
            "core-cycles",
            f"core {core.core_id}: active + compute + mem_stall + idle == cycles",
            core.stat_active_cycles
            + core.stat_compute_cycles
            + core.stat_mem_stall_cycles
            + core.stat_idle_cycles,
            result.cycles,
        )
    if not result.completed:
        return
    llc = result.llc
    _law("llc-lookups", "requests_accepted == hits + misses",
         llc.requests_accepted, llc.hits + llc.misses)
    _law("llc-misses", "misses == mshr_merges + mshr_allocations",
         llc.misses, llc.mshr_merges + llc.mshr_allocations)
    _law("dram-reads", "dram.reads == mshr_allocations",
         result.dram.reads, llc.mshr_allocations)
    _law("noc-responses", "noc_responses == noc_requests",
         result.noc_responses, result.noc_requests)
    _law("noc-requests", "noc_requests == requests_accepted",
         result.noc_requests, llc.requests_accepted)
    issued = result.total_requests_issued
    served = sum(core.l1_hits for core in result.cores) + result.noc_requests
    if issued != served:
        # Pure-compute trace entries issue without a request; the generated
        # traces have none, so count them only when they can matter.
        served += sum(len(b.entries) - b.num_accesses for b in system.trace.blocks)
    _law("core-issues", "total_requests_issued == l1_hits + noc_requests + bubbles",
         issued, served)


def simulate(
    system: SystemConfig,
    policy: PolicyConfig,
    workload: WorkloadConfig | None = None,
    trace: Trace | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    label: str | None = None,
    liveness: LivenessConfig | None = None,
) -> SimResult:
    """Run one simulation and return its :class:`SimResult`.

    Exactly one of ``workload`` and ``trace`` must be provided; passing a
    workload generates the trace through the dataflow mapper (Fig 6 flow).
    """

    if (workload is None) == (trace is None):
        raise ConfigError("provide exactly one of `workload` or `trace`")
    if trace is None:
        assert workload is not None
        trace = generate_trace(workload, system)
        workload_name = workload.name
    else:
        workload_name = trace.name
    sim = Simulator(
        system,
        policy,
        trace,
        max_cycles=max_cycles,
        label=label,
        workload_name=workload_name,
        liveness=liveness,
    )
    return sim.run()
