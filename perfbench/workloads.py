"""The benchmark's workloads.

Each workload takes its seed from the command line and hands the program only
the inputs made from it.  ``setup()`` is the work a user pays before the first
result (registry resolution, trace generation, and for ``cluster_kv`` the
step-cost table fill); ``run()`` is one timed run.  Both return an
:class:`Outcome` describing the simulated output, which the caller checks.

On the host every run follows the previous one (a closed loop of one); the
serving workloads' arrivals are open-loop Poisson streams in *simulated* time.
The modelled LLC starts empty on every engine run, as in the paper's
per-operator simulations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path

from checks import digest, engine_problems, serving_problems

MODEL = "llama3-70b"
#: The paper's arbitration + throttling policy; decode_kernel compares it with
#: the unoptimized baseline.
POLICY = "dynmg+BMA"
BASELINE = "unopt"


@dataclass(slots=True)
class Outcome:
    """What one setup or run simulated, and whether it is right."""

    digest: str
    #: Simulated accelerator cycles the run covered.
    sim_cycles: int
    #: Simulated iterations: engine cycles (decode_kernel) or serving steps.
    steps: int
    #: Operations: engine simulations plus served requests.
    attempted: int
    failed: int
    problems: list[str]
    headline: dict[str, float]
    engine: list = field(default_factory=list)
    serving: list = field(default_factory=list)


def _gate_engine(results) -> tuple[int, list[str]]:
    per_result = [engine_problems(result) for result in results]
    return sum(1 for p in per_result if p), [p for ps in per_result for p in ps]


def _tier_ci():
    return import_module("repro.config.scale").ScaleTier.CI


class Workload:
    """``seed`` makes the inputs; ``tap`` hands over the engine's results;
    ``work_dir`` holds files a run writes."""

    name = ""

    def __init__(self, seed: int, tap, work_dir: Path) -> None:
        self.seed = seed
        self.tap = tap
        self.work_dir = work_dir


class DecodeKernel(Workload):
    """One Fig 7 point: Llama3-70B decode Logit at 8K context, ci tier, table5.

    ``unopt`` and ``dynmg+BMA`` run through ``run_sweep`` with one worker and
    a fresh result store each run, as ``llamcat fig7`` does.  The inputs are
    the paper's; the seed only shuffles the order the two points are
    submitted in, which must not change any result.
    """

    name = "decode_kernel"
    SEQ_LEN = 8192
    runs = 0

    def setup(self) -> None:
        scenario = import_module("repro.api").Scenario
        runner = import_module("repro.sim.runner")
        policies = [BASELINE, POLICY]
        random.Random(self.seed).shuffle(policies)
        self.points = [
            scenario.create(
                MODEL, policy, seq_len=self.SEQ_LEN, tier=_tier_ci(), system="table5"
            ).to_point(label=policy)
            for policy in policies
        ]
        point = self.points[0]
        runner.cached_trace(point.workload, point.system, point.ordering, point.constraints)

    def run(self) -> Outcome:
        self.runs += 1
        store_path = self.work_dir / f"store-{self.name}-{self.runs}.jsonl"
        store = import_module("repro.sweep.store").ResultStore(store_path)
        try:
            report = import_module("repro.sweep.executor").run_sweep(
                self.points, jobs=1, store=store
            )
        finally:
            store_path.unlink(missing_ok=True)
        engine = self.tap.drain()
        failed, problems = _gate_engine(engine)
        for outcome in report.failures:
            failed += 1
            problems.append(f"sweep point {outcome.point.label!r} failed:\n{outcome.error}")
        results = sorted((o.result for o in report.outcomes if o.ok), key=lambda r: r.label)
        if len(engine) != len(self.points):
            problems.append(f"{len(engine)} engine runs for {len(self.points)} points")
        cycles = {r.label: r.cycles for r in results}
        headline = {f"cycles.{label}": float(c) for label, c in cycles.items()}
        if BASELINE in cycles and POLICY in cycles:
            headline["sim.speedup_bma"] = cycles[BASELINE] / cycles[POLICY]
        total = sum(cycles.values())
        return Outcome(
            digest=digest([r.to_dict() for r in results]),
            sim_cycles=total,
            steps=total,
            attempted=len(self.points),
            failed=failed,
            problems=problems,
            headline=headline,
            engine=engine,
        )


def _serving_outcome(metrics, expected: int, engine, digest_engine: bool) -> Outcome:
    """``digest_engine`` adds the engine results to the digest; leave it off
    where only some runs of a set run the engine."""

    failed_engine, problems = _gate_engine(engine)
    failed_requests, request_problems = serving_problems(metrics, expected)
    output = {"serving": metrics.to_dict()}
    if digest_engine:
        output["engine"] = [r.to_dict() for r in engine]
    return Outcome(
        digest=digest(output),
        sim_cycles=metrics.total_cycles,
        steps=metrics.steps,
        attempted=len(engine) + expected,
        failed=failed_engine + failed_requests,
        problems=problems + request_problems,
        headline={
            "sim.tokens_per_s": metrics.tokens_per_s,
            "sim.latency_p99_ms": metrics.latency_percentile_ms(99.0),
            "sim.steps": float(metrics.steps),
            "sim.cycles": float(metrics.total_cycles),
        },
        engine=engine,
        serving=[metrics],
    )


class ServeCold(Workload):
    """One replica, Poisson arrivals, chunked prefill, a cold step-cost table.

    Every run builds its step-cost table from scratch, as every ``llamcat
    serve`` call does: the misses run the cycle engine on B x 8 KV heads at a
    64-token bucket (many short streams instead of decode_kernel's 8 long
    ones); the rest is the serving loop.
    """

    name = "serve_cold"
    REQUESTS = 1000

    def setup(self) -> None:
        serve = import_module("repro.serve")
        self.scenario = serve.ServeScenario(
            workload=MODEL,
            arrival="poisson",
            rate=2000.0,
            num_requests=self.REQUESTS,
            max_batch=2,
            scheduler="chunked",
            prefill_chunk=128,
            policy=POLICY,
            tier=_tier_ci(),
            seed=self.seed,
        ).validate()

    def run(self) -> Outcome:
        metrics = self.scenario.run()
        return _serving_outcome(metrics, self.REQUESTS, self.tap.drain(), True)


class ClusterKV(Workload):
    """Four replicas behind ``least-outstanding`` with a tight paged KV budget.

    1280 KV tokens in 16-token blocks with ``swap`` preemption evicts a few
    percent of requests.  Set-up runs the point once cold, which fills the
    step-cost table; every timed run reuses that table, so it does no engine
    work and only the fleet, router, scheduler and KV code can move it.  Its
    output must equal the cold run's exactly.
    """

    name = "cluster_kv"
    REQUESTS = 2000

    def setup(self) -> Outcome:
        cluster = import_module("repro.cluster")
        self.scenario = cluster.ClusterScenario(
            workload=MODEL,
            arrival="poisson",
            rate=16000.0,
            num_requests=self.REQUESTS,
            replicas=4,
            router="least-outstanding",
            max_batch=2,
            scheduler="chunked",
            prefill_chunk=128,
            kv_budget=1280,
            kv_block=16,
            preemption="swap",
            policy=POLICY,
            tier=_tier_ci(),
            seed=self.seed,
        ).validate()
        simulator = self.scenario.build_simulator()
        metrics = simulator.run()
        # What ClusterScenario.run does after a run; the filled table is kept.
        import_module("repro.sim.runner").clear_trace_cache()
        self.tables = {r.replica_id: r.cost_model for r in simulator.replicas}
        return _serving_outcome(metrics, self.REQUESTS, self.tap.drain(), False)

    def run(self) -> Outcome:
        simulator = self.scenario.build_simulator()
        for replica in simulator.replicas:
            replica.cost_model = self.tables[replica.replica_id]
        metrics = simulator.run()
        outcome = _serving_outcome(metrics, self.REQUESTS, self.tap.drain(), False)
        if outcome.engine:
            outcome.problems.append(
                f"{len(outcome.engine)} engine runs in a run that reuses the filled table"
            )
        return outcome


WORKLOADS = {cls.name: cls for cls in (DecodeKernel, ServeCold, ClusterKV)}
