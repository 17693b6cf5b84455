"""Sleeping cores are exact: skipping their ticks changes no simulated number.

The reference below ticks every core on every cycle (the engine before cores
could sleep).  The product engine must produce the identical ``SimResult`` and
identical internal counters for every registered arbiter x throttle pair; the
unit tests pin each wake source on its own.
"""

from __future__ import annotations

import pytest

from repro.common.address import AddressMap
from repro.common.types import AccessType, MemRequest, MemResponse
from repro.config.policies import ArbitrationKind, PolicyConfig, ThrottleKind
from repro.config.system import NoCConfig
from repro.noc.interconnect import Interconnect
from repro.registry import ARBITERS, THROTTLES
from repro.sim.engine import SimulationEngine
from repro.sim.simulator import Simulator
from repro.sim.system import SimulatedSystem
from repro.trace.generator import generate_trace


class TickEverySystem(SimulatedSystem):
    """Reference: every core ticks every cycle, asleep or not."""

    def step(self, cycle: int) -> None:
        self.cycle = cycle
        for payload, line_addr, is_write in self.dram.tick(cycle):
            if not is_write:
                self.llc.on_dram_fill(payload, line_addr, cycle)
        self.llc.tick(cycle)
        self.noc.tick(cycle, self._slice_sinks, self._core_sinks)
        for core in self.cores:
            core.tick(cycle)
        self.throttle.tick(cycle)


class SleepCountingSystem(SimulatedSystem):
    """The product engine, counting the cores left asleep after each cycle."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.asleep_after_step = 0

    def step(self, cycle: int) -> None:
        super().step(cycle)
        self.asleep_after_step += sum(core.asleep for core in self.cores)


def _internal_counters(system: SimulatedSystem) -> dict:
    return {
        "backpressure_stalls": [c.stat_backpressure_stalls for c in system.cores],
        "compute_cycles": [c.stat_compute_cycles for c in system.cores],
        "noc_backpressure_rejects": system.noc.backpressure_rejects,
        "throttle_adjustments": system.throttle.adjustments,
        "throttle_samples": system.throttle.samples,
    }


def _run(system_cfg, policy, trace, system_cls):
    sim = Simulator(system_cfg, policy, trace)
    sim.system = system_cls(system_cfg, policy, trace)
    result = sim.run()
    return result, sim.system


@pytest.mark.parametrize("throttle", sorted(THROTTLES.names()))
@pytest.mark.parametrize("arbiter", sorted(ARBITERS.names()))
def test_sleeping_matches_tick_every_core(tiny_system, tiny_workload, arbiter, throttle):
    policy = PolicyConfig(
        arbitration=ArbitrationKind(arbiter), throttle=ThrottleKind(throttle)
    ).validate()
    trace = generate_trace(tiny_workload, tiny_system)

    expected, reference = _run(tiny_system, policy, trace, TickEverySystem)
    actual, product = _run(tiny_system, policy, trace, SleepCountingSystem)

    assert product.asleep_after_step > 0  # the point exercises sleeping at all
    assert actual.to_dict() == expected.to_dict()
    assert _internal_counters(product) == _internal_counters(reference)


# -- wake sources ----------------------------------------------------------------------------
@pytest.fixture()
def system(tiny_system, tiny_workload) -> SimulatedSystem:
    policy = PolicyConfig().validate()
    return SimulatedSystem(tiny_system, policy, generate_trace(tiny_workload, tiny_system))


def _step_until(system: SimulatedSystem, predicate, limit: int = 50_000) -> int:
    for cycle in range(limit):
        system.step(cycle)
        if predicate():
            return cycle
    raise AssertionError("condition never reached")


def _pending(core) -> list:
    return [w.pending_request for w in core.windows if w.pending_request is not None]


class TestWakeSources:
    def test_receive_wakes_a_sleeping_core(self, system):
        core = system.cores[0]
        cycle = _step_until(system, lambda: core.asleep and bool(core._req_window))
        req_id = next(iter(core._req_window))
        response = MemResponse(
            req_id=req_id, core_id=0, tb_id=0, line_addr=0,
            rw=AccessType.READ, complete_cycle=cycle + 1,
        )
        core.receive(response, cycle + 1)
        assert not core.asleep

    def test_backpressured_core_waits_on_its_target_slice(self, system):
        cycle = _step_until(
            system, lambda: any(c.asleep and _pending(c) for c in system.cores)
        )
        core = next(c for c in system.cores if c.asleep and _pending(c))
        for pending in _pending(core):
            target = system.noc.slice_of(pending.addr)
            assert core.wake in system.noc._waiters[target]
        # Every cycle it sleeps, each pending request would have been rejected.
        stalls = core.stat_backpressure_stalls
        rejects = system.noc.backpressure_rejects
        core.settle(cycle + 11)
        assert core.stat_backpressure_stalls - stalls == 10 * len(_pending(core))
        assert system.noc.backpressure_rejects - rejects == 10 * len(_pending(core))

    def test_slice_credit_wakes_its_waiters(self):
        noc = Interconnect(
            NoCConfig(request_latency=1, response_latency=1),
            AddressMap(line_size=64, num_slices=2),
            num_cores=1,
            num_slices=2,
        )
        accept = [False]
        slice_sinks = [lambda req, cycle: accept[0]] * 2
        core_sinks = [lambda resp, cycle: None]
        cycle = 0
        while noc.send_request(MemRequest(addr=0x0, rw=AccessType.READ, core_id=0), cycle):
            noc.tick(cycle, slice_sinks, core_sinks)
            cycle += 1
        woken: list[str] = []
        noc.add_waiter(0x0, lambda: woken.append("slice0"))
        noc.add_waiter(0x40, lambda: woken.append("slice1"))
        noc.tick(cycle, slice_sinks, core_sinks)
        assert woken == []                      # the port took nothing: no credit
        accept[0] = True
        noc.tick(cycle + 1, slice_sinks, core_sinks)
        assert woken == ["slice0"]              # only slice 0 returned a credit
        noc.tick(cycle + 2, slice_sinks, core_sinks)
        assert woken == ["slice0"]              # waiters are woken once

    def test_limit_change_wakes_only_on_a_change(self, system):
        core = system.cores[0]
        _step_until(system, lambda: core.asleep)
        core.set_max_running_blocks(core.max_running_blocks)
        assert core.asleep
        core.set_max_running_blocks(core.max_running_blocks - 1)
        assert not core.asleep

    def test_direct_tick_wakes_and_credits_first(self, system):
        core = system.cores[0]
        cycle = _step_until(system, lambda: core.asleep and not core._sleep_idle)
        stalls = core.stat_mem_stall_cycles
        core.tick(cycle + 10)                   # slept through cycles cycle+1 .. cycle+9
        assert core.stat_mem_stall_cycles - stalls >= 9
        assert core._sleep_from in (-1, cycle + 11)

    def test_idle_cycles_credited_lazily_at_run_end(self, tiny_system, tiny_workload):
        policy = PolicyConfig().validate()
        sim = Simulator(tiny_system, policy, generate_trace(tiny_workload, tiny_system))
        report = SimulationEngine(sim.system).run()
        idle = {c.core_id: c.stat_idle_cycles for c in sim.system.cores if c._sleep_idle}
        assert idle, "some core ran out of thread blocks before the end of the run"
        result = sim._collect(report.cycles)  # checks the core-cycles law too
        for core in result.cores:
            if core.core_id in idle:
                assert core.idle_cycles > idle[core.core_id]
