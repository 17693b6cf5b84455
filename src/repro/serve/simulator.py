"""The single-accelerator serving simulator: a one-replica cluster.

:class:`ServingSimulator` serves one request stream on one accelerator by
running the fleet event loop of :mod:`repro.cluster.simulator` with exactly
one :class:`~repro.cluster.simulator.ReplicaSim` behind a round-robin router,
then projecting the fleet metrics onto the :class:`ServeMetrics` format.
There is one serving loop in the repo, so serve and cluster runs can never
disagree on how a step is planned, priced or completed.

This module also holds the step primitives every replica shares --
:func:`plan_cycles` (what one planned iteration costs) and
:func:`complete_step` (how it completes) -- and the loop's guards: the
:data:`MAX_STEPS` budget and the structured :class:`ServeStallReport`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from repro.common.errors import LivelockError
from repro.obs.tracer import Tracer
from repro.serve.arrival import ArrivalProcess
from repro.serve.metrics import RequestMetrics, ServeMetrics, ServeSLO
from repro.serve.schedpolicy import DecodeFirstPolicy, SchedulerPolicy, StepPlan
from repro.serve.scheduler import (
    SEQ_BUCKET_FLOOR,
    ActiveRequest,
    BatchConfig,
    ContinuousBatchScheduler,
    bucket_context,
)
from repro.serve.stepcost import StepCostModel

#: Hard cap on scheduler iterations per replica -- a guard against a stream
#: that can never drain (e.g. a zero-cost model paired with an infinite closed
#: loop).  The fleet loop reads it through this module at run start.
MAX_STEPS = 10_000_000

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class ServeStallReport:
    """Scheduler-occupancy snapshot attached to a serve-loop LivelockError.

    The serve-layer counterpart of :class:`repro.sim.liveness.StallReport`:
    when the loop trips the :data:`MAX_STEPS` guard or detects a no-progress
    state (admission blocked on KV memory with an empty batch), the error
    carries queue, batch and KV occupancy so the stall is diagnosable from
    the exception alone.
    """

    reason: str
    now_s: float
    steps: int
    completed: int
    running: int
    waiting: int
    next_arrival_s: float | None
    kv_blocked: bool = False
    preemptions: int = 0
    kv_used_blocks: int | None = None
    kv_capacity_blocks: int | None = None
    replica_id: int | None = None

    def render(self) -> str:
        where = "serve loop" if self.replica_id is None else f"replica {self.replica_id}"
        lines = [
            f"{where} stalled ({self.reason}) at t={self.now_s:.6f}s after "
            f"{self.steps} steps:",
            f"  completed={self.completed} running={self.running} "
            f"waiting={self.waiting} next_arrival_s={self.next_arrival_s}",
        ]
        if self.kv_capacity_blocks is not None:
            lines.append(
                f"  kv: {self.kv_used_blocks}/{self.kv_capacity_blocks} blocks "
                f"used, admission_blocked={self.kv_blocked}, "
                f"preemptions={self.preemptions}"
            )
        return "\n".join(lines)


def build_serve_stall_report(
    scheduler: ContinuousBatchScheduler,
    reason: str,
    now_s: float,
    steps: int,
    completed: int,
    replica_id: int | None = None,
) -> ServeStallReport:
    """Snapshot a scheduler's occupancy for a structured stall error."""

    return ServeStallReport(
        reason=reason,
        now_s=now_s,
        steps=steps,
        completed=completed,
        running=len(scheduler.running),
        waiting=len(scheduler.waiting),
        next_arrival_s=scheduler.next_arrival_s(),
        kv_blocked=scheduler.kv_blocked,
        preemptions=scheduler.preemptions,
        kv_used_blocks=scheduler.kv.used_blocks if scheduler.kv is not None else None,
        kv_capacity_blocks=(
            scheduler.kv.capacity_blocks if scheduler.kv is not None else None
        ),
        replica_id=replica_id,
    )


def plan_cycles(
    cost_model: StepCostModel, plan: StepPlan, seq_bucket_floor: int = SEQ_BUCKET_FLOOR
) -> int:
    """Total cycles of one planned iteration: decode shape + prefill chunks.

    The decode half is priced at the batch's effective ``(batch, context)``
    shape -- the context bucketed exactly as :meth:`ContinuousBatchScheduler.
    batch_shape` always bucketed it, so a decode-only plan costs bit-for-bit
    what the legacy loop charged; the prefill half at the chunk-bucketed
    ``(tokens, context)`` shape.  A mixed iteration pays for both serially --
    the accelerator is one device; interleaving buys schedule freedom, not
    free compute.
    """

    cycles = 0
    if plan.decode:
        cycles += cost_model.step_cycles(
            len(plan.decode), bucket_context(plan.decode_context(), seq_bucket_floor)
        )
    if plan.prefill:
        cycles += cost_model.prefill_cycles(
            plan.prefill_tokens,
            bucket_context(plan.prefill_context(), seq_bucket_floor),
        )
    return cycles


def complete_step(
    scheduler: ContinuousBatchScheduler, plan: StepPlan, end_s: float
) -> list[tuple[ActiveRequest, RequestMetrics]]:
    """Finish one planned iteration ending at ``end_s``.

    Applies the plan's prompt chunks (stamping ``prefill_end_s`` on the
    requests whose prompt completes), credits one output token to every
    planned decode, stamps first-token times, evicts the requests whose output
    budget is exhausted and returns them paired with their finished
    :class:`RequestMetrics` record.  The one definition of step-completion
    semantics, used by every :class:`~repro.cluster.simulator.ReplicaSim`.
    """

    for active, chunk in plan.prefill:
        # Clamp overshooting chunks: a chunk larger than the remaining prompt
        # (validated plans never carry one, but defend the shared primitive)
        # must finish the prefill, not drive the counter negative and leave
        # the request stuck in_prefill forever.
        active.prefill_remaining = max(0, active.prefill_remaining - chunk)
        if active.prefill_remaining <= 0 and active.prefill_end_s is None:
            # Stamp only the first completion: a recompute-preempted request
            # re-prefills later, but prefill_end_s keeps describing when the
            # prompt was first fully processed (metrics validation orders it
            # before first_token_s).
            active.prefill_end_s = end_s
    for active in plan.decode:
        active.generated += 1
        if scheduler.kv is not None:
            scheduler.kv.grow(active.request.request_id, active.context_tokens)
        if active.first_token_s is None:
            active.first_token_s = end_s
    finished = []
    for active in scheduler.evict_finished(end_s):
        assert active.first_token_s is not None and active.finish_s is not None
        finished.append(
            (
                active,
                RequestMetrics(
                    request_id=active.request.request_id,
                    arrival_s=active.request.arrival_s,
                    admitted_s=active.admitted_s,
                    first_token_s=active.first_token_s,
                    finish_s=active.finish_s,
                    prompt_tokens=active.request.prompt_tokens,
                    output_tokens=active.request.output_tokens,
                    prefill_end_s=active.prefill_end_s,
                ).validate(),
            )
        )
    return finished


class ServingSimulator:
    """Simulate serving one request stream on one accelerator."""

    def __init__(
        self,
        arrival: ArrivalProcess,
        cost_model: StepCostModel,
        frequency_ghz: float,
        batch: BatchConfig | None = None,
        policy: SchedulerPolicy | None = None,
        slo: ServeSLO | None = None,
        label: str = "serve",
        workload_name: str = "workload",
        telemetry_ms: float | None = None,
    ) -> None:
        self.arrival = arrival
        self.cost_model = cost_model
        self.frequency_ghz = frequency_ghz
        self.batch_config = (batch if batch is not None else BatchConfig()).validate()
        self.policy = policy if policy is not None else DecodeFirstPolicy()
        self.slo = (slo if slo is not None else ServeSLO()).validate()
        self.label = label
        self.workload_name = workload_name
        self.telemetry_ms = telemetry_ms
        #: Wall-clock profile of the run's hot paths (step-cost table builds);
        #: populated by :meth:`run`, never serialized into metrics.
        self.profile: dict = {}

    def run(self, tracer: Tracer | None = None, probe=None) -> ServeMetrics:
        # The fleet loop imports this module's step primitives; importing it
        # here, not at module level, keeps the two modules acyclic.
        from repro.cluster.router import RoundRobinRouter
        from repro.cluster.simulator import ClusterSimulator, ReplicaSim

        replica = ReplicaSim(
            replica_id=0,
            cost_model=self.cost_model,
            frequency_ghz=self.frequency_ghz,
            batch=self.batch_config,
            policy=self.policy,
        )
        fleet = ClusterSimulator(
            arrival=self.arrival,
            router=RoundRobinRouter(1),
            replicas=[replica],
            slo=self.slo,
            label=self.label,
            workload_name=self.workload_name,
            telemetry_ms=self.telemetry_ms,
        )
        try:
            metrics = fleet.run(tracer=tracer, probe=probe)
        except LivelockError as exc:
            if not isinstance(exc.report, ServeStallReport):
                raise
            # Without a replica id the report renders as a serve-loop stall.
            report = replace(exc.report, replica_id=None)
            raise LivelockError(report.render(), report=report) from None

        completed = metrics.replicas[0].requests
        meta = {
            "arrival": self.arrival.name,
            "max_batch": self.batch_config.max_batch,
            "seq_bucket_floor": self.batch_config.seq_bucket_floor,
        }
        if self.batch_config.prefill:
            # Emitted only when the prefill phase is modeled, so decode-only
            # runs keep the exact legacy meta (golden fixture compatibility).
            meta["scheduler"] = self.policy.name
            meta.update(self.policy.meta())
            meta["prefill_steps"] = replica.prefill_steps
            meta["prefill_tokens"] = replica.prefill_tokens
        kv = replica.scheduler.kv
        if kv is not None:
            # Emitted only when the KV memory model is on, keeping the meta of
            # every legacy (unbounded-memory) run byte-identical.
            preemptions = replica.scheduler.preemptions
            meta["kv_budget_tokens"] = self.batch_config.kv.budget_tokens
            meta["kv_block_tokens"] = self.batch_config.kv.block_tokens
            meta["preemption"] = self.batch_config.kv.preemption
            meta["preemptions"] = preemptions
            meta["preemption_rate"] = preemptions / max(1, len(completed))
            meta["kv_peak_utilization"] = kv.peak_utilization
            meta["kv_peak_fragmentation_tokens"] = kv.peak_fragmentation_tokens
            meta["kv_memory_bound_s"] = replica.mem_bound_s
            meta["kv_memory_bound_frac"] = (
                replica.mem_bound_s / metrics.duration_s
                if metrics.duration_s > 0
                else 0.0
            )
        for key in ("step_cost_entries", "step_simulations"):
            if key in metrics.meta:
                meta[key] = metrics.meta[key]
        self.profile = {"step_cost": self.cost_model.profile()}
        logger.debug(
            "serve run [%s]: %d steps, %d requests, step_cost=%s",
            self.label, replica.steps, len(completed), self.profile["step_cost"],
        )
        return ServeMetrics(
            label=self.label,
            workload=self.workload_name,
            frequency_ghz=self.frequency_ghz,
            duration_s=metrics.duration_s,
            steps=replica.steps,
            total_cycles=replica.total_cycles,
            requests=completed,
            slo=self.slo,
            meta=meta,
            telemetry=metrics.telemetry,
        )
