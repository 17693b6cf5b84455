"""The serving event loop: N replicas behind a router (serve runs N = 1).

:class:`ClusterSimulator` runs N accelerator replicas against one shared
arrival stream.  Each replica is a full serving pipeline -- its own
:class:`~repro.serve.scheduler.ContinuousBatchScheduler`, step-planning
policy and step-cost model -- while a pluggable
:class:`~repro.cluster.router.Router` decides, at each request's arrival
instant, which replica receives it.  This is the repo's only serving loop:
:class:`~repro.serve.simulator.ServingSimulator` is one replica behind a
round-robin router.

The event loop interleaves three event kinds on one clock:

1. **arrival** -- the next request of the shared stream is routed (the router
   observes replica queues exactly as they stand at that instant) and
   enqueued on the chosen replica;
2. **step end** -- a replica finishes one planned iteration: prompt chunks
   shrink ``prefill_remaining``, every planned decode is credited a token,
   finished requests are evicted (and reported to the arrival process, closing
   the loop for closed-loop traffic), and the replica immediately re-forms its
   batch and starts the next step;
3. **handoff** -- in a *disaggregated* fleet, a request whose prompt finished
   on a prefill replica becomes admissible on a decode replica once its KV
   cache has been transferred (``kv_transfer_s`` later); the decode router
   picks the receiving replica at that instant.

Colocated fleets tag every replica ``"mixed"``; disaggregated fleets split
them into ``"prefill"`` replicas (running
:class:`~repro.serve.schedpolicy.PrefillOnlyPolicy`, fed by the arrival
router) and ``"decode"`` replicas (fed exclusively by handoffs).

Replicas advance independently between events -- a busy replica never blocks
an idle one -- so the fleet behaves like N asynchronous serving loops glued
together by the routers.  Determinism is preserved end to end: replicas are
visited in index order, event ties resolve step-ends before same-instant
arrivals, and both the arrival and handoff heaps order equal timestamps by
request id, so a seeded run reproduces every routing decision and timestamp
bit-for-bit.

Homogeneous replicas share one memoized step-cost model (the cluster scenario
builds one per *distinct* system preset), so a 16-replica fleet pays for the
distinct ``(batch, seq-bucket)`` shapes it visits, not for 16 copies of them.
"""

from __future__ import annotations

import heapq
import logging
from typing import Sequence

from repro.cluster.metrics import ClusterMetrics, ReplicaMetrics
from repro.cluster.router import Router
from repro.common.errors import ConfigError, LivelockError
from repro.obs.telemetry import TelemetryRecorder
from repro.obs.tracer import (
    CAT_HANDOFF,
    CAT_STEP,
    NULL_TRACER,
    Tracer,
    trace_request,
)
from repro.serve import simulator as serve_simulator
from repro.serve.arrival import ArrivalProcess
from repro.serve.metrics import RequestMetrics, ServeSLO
from repro.serve.schedpolicy import (
    DecodeFirstPolicy,
    PrefillOnlyPolicy,
    SchedulerPolicy,
    StepPlan,
)
from repro.serve.scheduler import (
    ActiveRequest,
    BatchConfig,
    ContinuousBatchScheduler,
    HandoffRequest,
    bucket_context,
)
from repro.serve.simulator import build_serve_stall_report, complete_step, plan_cycles
from repro.serve.stepcost import StepCostModel

#: The replica roles a fleet may mix: every colocated replica is "mixed";
#: a disaggregated fleet is partitioned into "prefill" and "decode".
REPLICA_ROLES = ("mixed", "prefill", "decode")

logger = logging.getLogger(__name__)


class ReplicaSim:
    """One accelerator replica: a scheduler, a step planner, a cost model, a clock.

    Exposes the two load signals routers read (``queue_depth``,
    ``outstanding``) and accumulates the counters that become its
    :class:`~repro.cluster.metrics.ReplicaMetrics`.  ``role`` tags the
    replica's place in a disaggregated fleet; a ``"prefill"`` replica evicts
    each request the moment its prompt completes and surfaces it through
    :meth:`take_handoffs` for the cluster loop to transfer.
    """

    def __init__(
        self,
        replica_id: int,
        cost_model: StepCostModel,
        frequency_ghz: float,
        batch: BatchConfig | None = None,
        system_name: str = "system",
        role: str = "mixed",
        policy: SchedulerPolicy | None = None,
    ) -> None:
        if frequency_ghz <= 0:
            raise ConfigError(f"frequency_ghz must be positive, got {frequency_ghz}")
        if role not in REPLICA_ROLES:
            raise ConfigError(
                f"replica role must be one of {REPLICA_ROLES}, got {role!r}"
            )
        self.replica_id = replica_id
        self.cost_model = cost_model
        self.frequency_ghz = frequency_ghz
        self.system_name = system_name
        self.role = role
        if policy is not None:
            self.policy = policy
        else:
            self.policy = PrefillOnlyPolicy() if role == "prefill" else DecodeFirstPolicy()
        self.scheduler = ContinuousBatchScheduler(
            config=(batch if batch is not None else BatchConfig()).validate()
        )
        #: End time of the in-flight step; None while idle.
        self.step_end_s: float | None = None
        #: The in-flight step's plan (set exactly while ``step_end_s`` is).
        self._plan: StepPlan | None = None
        #: Prefill-complete requests awaiting pickup by the cluster loop.
        self._ready_handoffs: list[ActiveRequest] = []
        self.steps = 0
        self.total_cycles = 0
        #: Steps that carried prompt chunks, and the prompt tokens they carried.
        self.prefill_steps = 0
        self.prefill_tokens = 0
        self.busy_s = 0.0
        #: Busy time spent with admission stalled on KV memory (or funding
        #: decode growth through preemption) -- the memory-bound signal.
        self.mem_bound_s = 0.0
        self.routed = 0
        self.handoffs = 0
        self.completed: list[RequestMetrics] = []
        #: Observability sinks, installed by :meth:`ClusterSimulator.run`
        #: (the null defaults keep standalone replicas zero-overhead).
        self.tracer: Tracer = NULL_TRACER
        self.recorder: TelemetryRecorder | None = None
        self.probe = None

    # -- load signals (read by routers) ------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests routed here but not yet admitted into the batch."""

        return len(self.scheduler.waiting)

    @property
    def outstanding(self) -> int:
        """Queued plus running requests (issued minus completed)."""

        return len(self.scheduler.waiting) + len(self.scheduler.running)

    @property
    def has_work(self) -> bool:
        return self.scheduler.has_work

    # -- event-loop hooks --------------------------------------------------------------
    def enqueue(self, request) -> None:
        self.routed += 1
        self.scheduler.enqueue(request)

    def _harvest_handoffs(self) -> None:
        """Evict prefill-complete requests (prefill replicas only)."""

        if self.role != "prefill":
            return
        done = [a for a in self.scheduler.running if not a.in_prefill]
        if done:
            self.scheduler.running = [a for a in self.scheduler.running if a.in_prefill]
            for active in done:
                # The KV pages travel with the request; this replica's copy is
                # freed the moment the transfer is initiated.
                self.scheduler.release_kv(active)
            self.handoffs += len(done)
            self._ready_handoffs.extend(done)

    def take_handoffs(self) -> list[ActiveRequest]:
        """Drain the requests whose prompt completed since the last call."""

        out, self._ready_handoffs = self._ready_handoffs, []
        return out

    def maybe_start_step(self, now_s: float) -> bool:
        """Admit waiting requests and launch one planned iteration.

        Zero-cost plans (free prefill) are applied instantly without consuming
        a step -- which keeps ``decode-first`` with prefill cost disabled
        bit-for-bit the legacy decode-only timeline; the replica then re-plans
        against the updated batch.
        """

        if self.step_end_s is not None:
            return False
        scheduler = self.scheduler
        while True:
            scheduler.admit(now_s)
            if not scheduler.running:
                if self.recorder is not None:
                    self.recorder.observe(self.replica_id, now_s, self.queue_depth, 0)
                return False
            preempted = scheduler.ensure_kv_growth(now_s)
            plan = self.policy.plan(scheduler.running)
            cycles = plan_cycles(self.cost_model, plan, scheduler.config.seq_bucket_floor)
            if cycles < 0:
                raise ConfigError(f"step cost model returned {cycles} cycles")
            if cycles == 0:
                if plan.decode:
                    raise ConfigError("step cost model priced a decode step at 0 cycles")
                complete_step(scheduler, plan, now_s)
                self._harvest_handoffs()
                continue
            self.steps += 1
            self.total_cycles += cycles
            if plan.prefill:
                self.prefill_steps += 1
                self.prefill_tokens += plan.prefill_tokens
            if self.probe is not None:
                self.probe.record_step(
                    replica_id=self.replica_id,
                    step=self.steps,
                    start_s=now_s,
                    scheduler=scheduler,
                    plan=plan,
                    cycles=cycles,
                )
            duration_s = cycles / (self.frequency_ghz * 1e9)
            self.busy_s += duration_s
            if scheduler.kv_blocked or preempted:
                self.mem_bound_s += duration_s
            end_s = self.step_end_s = now_s + duration_s
            self._plan = plan
            # The step's span is fully known at launch, so both sinks record
            # here; completion only applies the plan.
            if self.tracer.enabled:
                args = plan.trace_args()
                args["cycles"] = cycles
                if plan.decode:
                    args["seq_bucket"] = bucket_context(
                        plan.decode_context(), scheduler.config.seq_bucket_floor
                    )
                self.tracer.complete(
                    "step", CAT_STEP, self.replica_id, 0, now_s, end_s, args=args
                )
            if self.recorder is not None:
                self.recorder.on_step(
                    self.replica_id,
                    now_s,
                    end_s,
                    self.queue_depth,
                    len(scheduler.running),
                    len(plan.decode),
                )
            return True

    def finish_step(self) -> list:
        """Complete the in-flight iteration via the shared step-completion path.

        Returns the evicted (decode-finished)
        :class:`~repro.serve.scheduler.ActiveRequest` objects so the cluster
        loop can feed completions back into the arrival process; prefill
        completions are harvested separately through :meth:`take_handoffs`.
        """

        assert self.step_end_s is not None and self._plan is not None
        end_s = self.step_end_s
        plan = self._plan
        self.step_end_s = None
        self._plan = None
        finished = []
        for active, record in complete_step(self.scheduler, plan, end_s):
            self.completed.append(record)
            finished.append(active)
        self._harvest_handoffs()
        return finished

    def metrics(self) -> ReplicaMetrics:
        return ReplicaMetrics(
            replica_id=self.replica_id,
            system=self.system_name,
            frequency_ghz=self.frequency_ghz,
            steps=self.steps,
            total_cycles=self.total_cycles,
            busy_s=self.busy_s,
            routed=self.routed,
            handoffs=self.handoffs,
            role=self.role,
            requests=tuple(sorted(self.completed, key=lambda r: r.request_id)),
        ).validate()


class ClusterSimulator:
    """Simulate serving one request stream on a fleet of replicas.

    ``router`` spreads arrivals over the arrival-eligible replicas (the whole
    fleet when colocated, the prefill replicas when disaggregated);
    ``decode_router`` -- required exactly when the fleet is disaggregated --
    spreads prefill-complete handoffs over the decode replicas, each arriving
    ``kv_transfer_s`` after its prompt finished.
    """

    def __init__(
        self,
        arrival: ArrivalProcess,
        router: Router,
        replicas: Sequence[ReplicaSim],
        slo: ServeSLO | None = None,
        label: str = "cluster",
        workload_name: str = "workload",
        router_name: str | None = None,
        kv_transfer_s: float = 0.0,
        decode_router: Router | None = None,
        telemetry_ms: float | None = None,
    ) -> None:
        if not replicas:
            raise ConfigError("a cluster needs at least one replica")
        if kv_transfer_s < 0:
            raise ConfigError(f"kv_transfer_s must be >= 0, got {kv_transfer_s}")
        if telemetry_ms is not None and telemetry_ms <= 0:
            raise ConfigError(f"telemetry_ms must be positive, got {telemetry_ms}")
        self.replicas = list(replicas)
        self.prefill_replicas = [r for r in self.replicas if r.role == "prefill"]
        self.decode_replicas = [r for r in self.replicas if r.role == "decode"]
        self.disaggregated = bool(self.prefill_replicas or self.decode_replicas)
        if self.disaggregated:
            if any(r.role == "mixed" for r in self.replicas):
                raise ConfigError(
                    "a disaggregated fleet must tag every replica prefill or decode"
                )
            if not self.prefill_replicas or not self.decode_replicas:
                raise ConfigError(
                    "a disaggregated fleet needs at least one prefill and one "
                    "decode replica"
                )
            if decode_router is None:
                raise ConfigError("a disaggregated fleet needs a decode_router")
            if decode_router.num_replicas != len(self.decode_replicas):
                raise ConfigError(
                    f"decode router expects {decode_router.num_replicas} replicas, "
                    f"fleet has {len(self.decode_replicas)} decode replicas"
                )
        elif decode_router is not None:
            raise ConfigError("decode_router is only meaningful for disaggregated fleets")
        self.entry_replicas = (
            self.prefill_replicas if self.disaggregated else self.replicas
        )
        if router.num_replicas != len(self.entry_replicas):
            raise ConfigError(
                f"router expects {router.num_replicas} replicas, fleet has "
                f"{len(self.entry_replicas)} arrival-eligible replicas"
            )
        self.arrival = arrival
        self.router = router
        self.decode_router = decode_router
        self.kv_transfer_s = kv_transfer_s
        self.slo = (slo if slo is not None else ServeSLO()).validate()
        self.label = label
        self.workload_name = workload_name
        self.router_name = router_name if router_name is not None else router.name
        self.telemetry_ms = telemetry_ms
        #: Wall-clock profile of the fleet's step-cost tables; populated by
        #: :meth:`run`, never serialized into metrics.
        self.profile: dict = {}

    def _select(self, router: Router, group: list[ReplicaSim], request, now_s: float):
        chosen = router.select(request, group, now_s)
        if not 0 <= chosen < len(group):
            raise ConfigError(
                f"router {self.router_name!r} chose replica {chosen} "
                f"of a {len(group)}-replica group"
            )
        return group[chosen]

    def run(self, tracer: Tracer | None = None, probe=None) -> ClusterMetrics:
        tracer = NULL_TRACER if tracer is None else tracer
        if probe is not None:
            # The determinism probe (repro.analysis.runtime.StepProbe) digests
            # per-replica scheduler state; like the tracer and recorder it is
            # installed on every replica and reads the arrival's RNG position
            # through this attribute.
            probe.arrival = self.arrival
        recorder = (
            TelemetryRecorder(
                interval_s=self.telemetry_ms * 1e-3,
                num_replicas=len(self.replicas),
            )
            if self.telemetry_ms is not None
            else None
        )
        # Replica pids are their ids; the per-request swimlanes live one past.
        requests_pid = len(self.replicas)
        if tracer.enabled:
            for replica in self.replicas:
                tracer.name_process(
                    replica.replica_id,
                    f"replica {replica.replica_id} [{replica.role}]",
                )
                tracer.name_thread(replica.replica_id, 0, "scheduler")
            tracer.name_process(requests_pid, "requests")
        for replica in self.replicas:
            replica.tracer = tracer
            replica.recorder = recorder
            replica.probe = probe

        # The pending heap orders un-routed requests by (arrival, id); ids are
        # unique, so heap order -- and thus every routing decision -- is total.
        # The handoff heap is keyed the same way on KV-transfer completion.
        pending: list[tuple[float, int, object]] = []
        handoffs: list[tuple[float, int, ActiveRequest]] = []
        handoff_count = 0
        for request in self.arrival.initial():
            request = request.validate()
            heapq.heappush(pending, (request.arrival_s, request.request_id, request))
        if not pending:
            raise ConfigError(
                f"arrival process {self.arrival.name!r} produced no requests"
            )
        first_arrival_s = pending[0][0]
        # Runaway guard: each replica gets the per-replica step budget, read
        # through its module so a patched budget takes effect.
        step_budget = serve_simulator.MAX_STEPS * len(self.replicas)
        fleet_steps = 0

        def collect_handoffs(now_s: float) -> None:
            nonlocal handoff_count
            for replica in self.prefill_replicas:
                for active in replica.take_handoffs():
                    handoff_count += 1
                    if tracer.enabled:
                        tracer.complete(
                            "kv-transfer",
                            CAT_HANDOFF,
                            requests_pid,
                            active.request.request_id,
                            now_s,
                            now_s + self.kv_transfer_s,
                            args={"from_replica": replica.replica_id},
                        )
                    heapq.heappush(
                        handoffs,
                        (
                            now_s + self.kv_transfer_s,
                            active.request.request_id,
                            active,
                        ),
                    )

        replicas = self.replicas
        has_prefill = bool(self.prefill_replicas)
        now_s = 0.0
        while True:
            # Route everything that has arrived by now: the router sees queue
            # depths as they stand after earlier same-instant completions.
            while pending and pending[0][0] <= now_s:
                _, _, request = heapq.heappop(pending)
                self._select(self.router, self.entry_replicas, request, now_s).enqueue(
                    request
                )

            # Deliver KV transfers that completed by now to decode replicas.
            while handoffs and handoffs[0][0] <= now_s:
                ready_s, _, active = heapq.heappop(handoffs)
                assert self.decode_router is not None
                replica = self._select(
                    self.decode_router, self.decode_replicas, active.request, now_s
                )
                if tracer.enabled:
                    tracer.instant(
                        "handoff",
                        CAT_HANDOFF,
                        requests_pid,
                        active.request.request_id,
                        ready_s,
                        args={"to_replica": replica.replica_id},
                    )
                replica.enqueue(HandoffRequest(active=active, arrival_s=ready_s))

            # Launch steps on every idle replica with admissible work (free
            # prefill may complete instantly and surface handoffs here).
            for replica in replicas:
                if replica.maybe_start_step(now_s):
                    fleet_steps += 1
            if has_prefill:
                collect_handoffs(now_s)

            # Advance the clock to the next event (step end, arrival, handoff,
            # or an idle replica's future re-admission -- a swap-preempted
            # request waiting out its transfer is an event source too).
            next_s = None
            for replica in replicas:
                t = replica.step_end_s
                if t is None:
                    t = replica.scheduler.next_arrival_s()
                    if t is None or t <= now_s:
                        continue
                if next_s is None or t < next_s:
                    next_s = t
            if pending and (next_s is None or pending[0][0] < next_s):
                next_s = pending[0][0]
            if handoffs and (next_s is None or handoffs[0][0] < next_s):
                next_s = handoffs[0][0]
            if next_s is None:
                stuck = [r for r in replicas if r.has_work]
                if stuck:
                    # Work remains but no event can ever fire: every stuck
                    # replica refused admission into an empty batch (a full-KV
                    # stall).  Raise a structured report instead of silently
                    # dropping the queued requests.
                    reports = [
                        build_serve_stall_report(
                            r.scheduler,
                            "admission blocked with an empty batch",
                            now_s,
                            r.steps,
                            len(r.completed),
                            replica_id=r.replica_id,
                        )
                        for r in stuck
                    ]
                    raise LivelockError(
                        "\n".join(report.render() for report in reports),
                        report=reports[0],
                    )
                break  # fleet drained and the stream is exhausted

            # Runaway guard, checked only while work remains so a run that
            # drains in exactly the budget still returns.
            if fleet_steps >= step_budget:
                reports = [
                    build_serve_stall_report(
                        r.scheduler,
                        f"fleet exceeded {step_budget} steps without draining",
                        now_s,
                        r.steps,
                        len(r.completed),
                        replica_id=r.replica_id,
                    )
                    for r in replicas
                ]
                raise LivelockError(
                    "\n".join(report.render() for report in reports),
                    report=reports[0],
                )
            now_s = next_s

            # Step-ends resolve before same-instant arrivals, so a request
            # arriving exactly as a batch slot frees observes the freed slot.
            for replica in replicas:
                t = replica.step_end_s
                if t is not None and t <= now_s:
                    for active in replica.finish_step():
                        follow_up = self.arrival.on_complete(active.request, now_s)
                        if follow_up is not None:
                            follow_up = follow_up.validate()
                            heapq.heappush(
                                pending,
                                (follow_up.arrival_s, follow_up.request_id, follow_up),
                            )
            if has_prefill:
                collect_handoffs(now_s)

        replica_metrics = tuple(replica.metrics() for replica in self.replicas)
        if tracer.enabled:
            # Lifecycle spans per completed request, in (replica, id) order --
            # trace viewers sort by timestamp, so emission order only needs to
            # be deterministic, not chronological.
            for replica in replica_metrics:
                for record in replica.requests:
                    trace_request(tracer, record, requests_pid)
        last_finish_s = max(
            (r.finish_s for replica in replica_metrics for r in replica.requests),
            default=first_arrival_s,
        )
        meta = {
            "arrival": self.arrival.name,
            "router": self.router_name,
            "num_replicas": len(self.replicas),
            "routed": [replica.routed for replica in self.replicas],
        }
        if self.disaggregated:
            meta["roles"] = [replica.role for replica in self.replicas]
            meta["handoffs"] = handoff_count
            meta["kv_transfer_s"] = self.kv_transfer_s
        kv_managers = [m for r in self.replicas if (m := r.scheduler.kv) is not None]
        if len(kv_managers) == len(self.replicas):
            # Emitted only when the KV memory model is on fleet-wide, keeping
            # legacy (unbounded-memory) cluster meta byte-identical.
            kv_cfg = self.replicas[0].scheduler.config.kv
            completed_total = sum(len(r.completed) for r in self.replicas)
            preemptions_total = sum(r.scheduler.preemptions for r in self.replicas)
            meta["kv_budget_tokens"] = [
                r.scheduler.config.kv.budget_tokens for r in self.replicas
            ]
            meta["kv_block_tokens"] = kv_cfg.block_tokens
            meta["preemption"] = kv_cfg.preemption
            meta["preemptions"] = [r.scheduler.preemptions for r in self.replicas]
            meta["preemption_rate"] = preemptions_total / max(1, completed_total)
            meta["kv_peak_utilization"] = [m.peak_utilization for m in kv_managers]
            meta["kv_memory_bound_s"] = [r.mem_bound_s for r in self.replicas]
        # Homogeneous fleets share cost models; report the distinct tables.
        tables = {id(r.cost_model): r.cost_model for r in self.replicas}
        sizes = [getattr(m, "table_size", None) for m in tables.values()]
        if all(size is not None for size in sizes):
            meta["step_cost_entries"] = sum(sizes)
            meta["step_simulations"] = sum(
                getattr(m, "simulations", getattr(m, "table_size", 0))
                for m in tables.values()
            )
        self.profile = {
            "step_cost": [
                m.profile() for m in tables.values() if m.profile()
            ]
        }
        logger.debug(
            "cluster run [%s]: %d replicas, %d requests, step_cost=%s",
            self.label,
            len(self.replicas),
            sum(len(r.requests) for r in replica_metrics),
            self.profile["step_cost"],
        )
        telemetry = (
            recorder.build(first_arrival_s) if recorder is not None else None
        )
        return ClusterMetrics(
            label=self.label,
            workload=self.workload_name,
            router=self.router_name,
            duration_s=max(0.0, last_finish_s - first_arrival_s),
            replicas=replica_metrics,
            slo=self.slo,
            meta=meta,
            telemetry=telemetry,
        )
