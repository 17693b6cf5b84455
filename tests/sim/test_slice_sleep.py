"""Sleeping LLC slices are exact: skipping their ticks changes no simulated number.

The reference below ticks every slice on every cycle, asleep or not (a
sleeping slice that is ticked directly wakes first, so every cycle runs in
full).  The product engine must produce the identical ``SimResult`` and
identical per-slice stall, busy and MSHR-failure counters for every
registered arbiter x throttle pair; the unit tests pin each wake source and
the settle rule on their own.
"""

from __future__ import annotations

import pytest

from repro.arbiter.fcfs import FcfsArbiter
from repro.common.address import AddressMap
from repro.common.types import AccessType, MemRequest
from repro.config.policies import ArbitrationKind, PolicyConfig, ThrottleKind
from repro.config.system import L2Config
from repro.llc.slice import LLCSlice
from repro.registry import ARBITERS, THROTTLES
from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.sim.simulator import Simulator
from repro.sim.system import SimulatedSystem
from repro.trace.generator import generate_trace


class TickEverySliceSystem(SimulatedSystem):
    """Reference: every slice ticks every cycle, asleep or not."""

    def step(self, cycle: int) -> None:
        self.cycle = cycle
        for payload, line_addr, is_write in self.dram.tick(cycle):
            if not is_write:
                self.llc.on_dram_fill(payload, line_addr, cycle)
        for llc_slice in self.llc.slices:
            llc_slice.tick(cycle)
        self.noc.tick(cycle, self._slice_sinks, self._core_sinks)
        for core in self.cores:
            if not core.asleep:
                core.tick(cycle)
        self.throttle.tick(cycle)


class SleepCountingSystem(SimulatedSystem):
    """The product engine, counting slice-cycles skipped while stalled or idle."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stalled_sleeps = 0
        self.idle_sleeps = 0

    def step(self, cycle: int) -> None:
        super().step(cycle)
        for llc_slice in self.llc.slices:
            if llc_slice.asleep:
                if llc_slice.stalled:
                    self.stalled_sleeps += 1
                else:
                    self.idle_sleeps += 1


def _slice_counters(system: SimulatedSystem) -> list[dict]:
    return [
        {
            "stall_cycles": s.stall_cycles,
            "busy_cycles": s.busy_cycles,
            "merge_failures_full_targets": s.mshr.merge_failures_full_targets,
            "alloc_failures_full_entries": s.mshr.alloc_failures_full_entries,
            "requests_rejected": s.requests_rejected,
            "last_activity_cycle": s.last_activity_cycle,
            "arbitration_calls": s.arbiter.arbitration_calls,
        }
        for s in system.llc.slices
    ]


def _run(system_cfg, policy, trace, system_cls, max_cycles=DEFAULT_MAX_CYCLES):
    sim = Simulator(system_cfg, policy, trace, max_cycles=max_cycles)
    sim.system = system_cls(system_cfg, policy, trace)
    result = sim.run(raise_on_stall=False)
    return result, sim.system


@pytest.mark.parametrize("throttle", sorted(THROTTLES.names()))
@pytest.mark.parametrize("arbiter", sorted(ARBITERS.names()))
def test_sleeping_matches_tick_every_slice(tiny_system, tiny_workload, arbiter, throttle):
    policy = PolicyConfig(
        arbitration=ArbitrationKind(arbiter), throttle=ThrottleKind(throttle)
    ).validate()
    trace = generate_trace(tiny_workload, tiny_system)

    expected, reference = _run(tiny_system, policy, trace, TickEverySliceSystem)
    actual, product = _run(tiny_system, policy, trace, SleepCountingSystem)

    assert expected.status == "completed"
    assert product.stalled_sleeps > 0  # the point exercises both kinds of sleep
    assert product.idle_sleeps > 0
    assert actual.to_dict() == expected.to_dict()
    assert _slice_counters(product) == _slice_counters(reference)


def test_run_cut_while_slices_sleep_counts_every_stall(tiny_system, tiny_workload):
    """Result collection settles slices still asleep on a stall at the last cycle."""

    policy = PolicyConfig().validate()
    trace = generate_trace(tiny_workload, tiny_system)
    probe = SimulatedSystem(tiny_system, policy, trace)
    cycle = 0
    while True:
        probe.step(cycle)
        cycle += 1
        if any(s.asleep and s.stalled and s._sleep_from < cycle for s in probe.llc.slices):
            break  # a slice has slept through at least one stalled cycle

    expected, reference = _run(tiny_system, policy, trace, TickEverySliceSystem, cycle + 1)
    actual, product = _run(tiny_system, policy, trace, SleepCountingSystem, cycle + 1)

    assert actual.status == "max_cycles"
    assert actual.to_dict() == expected.to_dict()
    assert _slice_counters(product) == _slice_counters(reference)


# -- wake sources ----------------------------------------------------------------------------
class OneSlice:
    """A single slice with one MSHR entry, so a second missing line stalls it."""

    def __init__(self) -> None:
        config = L2Config(
            size_bytes=64 * 1024, num_slices=1, mshr_num_entries=1, mshr_num_targets=4
        )
        self.dram_reads: list[int] = []
        self.slice = LLCSlice(
            slice_id=0,
            config=config,
            address_map=AddressMap(line_size=config.line_size, num_slices=1),
            arbiter=FcfsArbiter(num_cores=1),
            response_sink=lambda resp, cycle, delay: None,
            dram_sink=lambda line, is_write, slice_id: self._dram(line, is_write),
        )
        self.cycle = 0

    def _dram(self, line_addr: int, is_write: bool) -> bool:
        if not is_write:
            self.dram_reads.append(line_addr)
        return True

    def push(self, addr: int) -> bool:
        return self.slice.accept_request(
            MemRequest(addr=addr, rw=AccessType.READ, core_id=0), self.cycle
        )

    def run_until(self, predicate, limit: int = 200) -> None:
        """Tick the way ``SlicedLLC.tick`` does (sleeping slices are skipped)."""

        for _ in range(limit):
            if predicate():
                return
            if not self.slice.asleep:
                self.slice.tick(self.cycle)
            self.cycle += 1
        raise AssertionError("condition never reached")


def _stalled_asleep(rig: OneSlice) -> OneSlice:
    rig.push(0x1000)
    rig.push(0x2000)  # a second line: the single MSHR entry is taken
    rig.run_until(lambda: rig.slice.asleep and rig.slice.stalled)
    return rig


class TestWakeSources:
    def test_idle_slice_sleeps_and_a_request_wakes_it(self):
        rig = OneSlice()
        rig.run_until(lambda: rig.slice.asleep)
        assert not rig.slice.stalled
        assert rig.push(0x1000)
        assert not rig.slice.asleep

    def test_request_does_not_wake_a_stalled_slice(self):
        rig = _stalled_asleep(OneSlice())
        assert rig.push(0x3000)
        assert rig.slice.asleep

    def test_dram_fill_wakes_a_stalled_slice(self):
        rig = _stalled_asleep(OneSlice())
        rig.slice.on_dram_fill(rig.dram_reads[0], rig.cycle)
        assert not rig.slice.asleep
        rig.run_until(lambda: len(rig.dram_reads) == 2)  # the stalled miss allocates
        assert rig.slice.mshr_allocations == 2

    def test_settle_credits_every_slept_stall_cycle(self):
        rig = _stalled_asleep(OneSlice())
        s = rig.slice
        mshr = s.mshr
        start = s._sleep_from

        def counters():
            return (
                s.stall_cycles,
                s.busy_cycles,
                mshr.alloc_failures_full_entries,
                mshr.merge_failures_full_targets,
            )

        before = counters()
        s.settle(start + 10)
        s.settle(start + 10)  # idempotent
        after = counters()
        # The slept-on miss has no entry and the file is full: an allocation failure.
        assert [a - b for a, b in zip(after, before)] == [10, 10, 10, 0]

    def test_direct_tick_wakes_and_credits_first(self):
        rig = _stalled_asleep(OneSlice())
        s = rig.slice
        slept_from = s._sleep_from
        stalls = s.stall_cycles
        s.tick(slept_from + 5)  # slept through 5 cycles, then stalls once more
        assert s.stall_cycles - stalls == 6
        assert s.asleep and s._sleep_from == slept_from + 6


def test_dynmg_samples_read_settled_stall_totals(tiny_system, tiny_workload):
    """Every DynMG sample sees the stall total of the tick-every-slice engine."""

    policy = PolicyConfig(
        arbitration=ArbitrationKind.BALANCED_MSHR_AWARE, throttle=ThrottleKind.DYNMG
    ).validate()
    trace = generate_trace(tiny_workload, tiny_system)
    product = SimulatedSystem(tiny_system, policy, trace)
    reference = TickEverySliceSystem(tiny_system, policy, trace)
    samples = owed = 0
    cycle = 0
    while not (product.finished() and reference.finished()):
        product.step(cycle)
        reference.step(cycle)
        if product.throttle.samples > samples:
            samples = product.throttle.samples
            assert product.throttle._last_stall_total == reference.throttle._last_stall_total
            owed += any(s.asleep and s.stalled for s in product.llc.slices)
        cycle += 1
    assert samples > 0
    assert owed > 0  # some sample had to settle a sleeping slice
