"""Host-speed benchmark of the LLaMCAT reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload decode_kernel --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``decode_kernel`` -- one Fig 7 point, all cycle engine, no serving;
* ``serve_cold`` -- one replica with a cold step-cost table every run;
* ``cluster_kv`` -- four replicas, tight paged KV budget, step-cost table
  filled in set-up so the timed runs do no engine work.

The seed is a benchmark argument: the workload makes its inputs from it and
the program receives only those inputs.  Everything runs in this one process
with one sweep worker and no extra threads; beside it runs only the host-speed
probe, a child process that sleeps between samples.

``--trace 0`` sets up ``SETUP_REPEATS`` times (each from a fresh import of the
program) and then repeats timed runs for ``--seconds``; it prints the
end-to-end metrics as medians.  ``--trace 1`` repeats pairs of passes, one
untraced and one traced (set-up plus one run each), for ``--seconds``; it
prints the per-layer self times of the median traced pass, which with the
explicit ``unattributed.host_s`` remainder sum to its traced wall, and the
tracing overhead (traced wall / untraced wall).  The traced passes' spans and
call counts are written to ``.perfbench/`` when the benchmark ends.

The end-to-end host times are CPU seconds of this process (see
``HOST_CLOCK``).  Every host time (and rate per host second) is reported at a
reference host speed, measured all along the run by a probe process of the
benchmark's own (see ``hostspeed.py``); the report also prints the measured
seconds and the factors.

Simulated numbers are the program's answer, not a score: they are checked
(conservation laws, every request finished, one digest across all runs of a
set) and printed, never ranked.  The model is not validated against
hardware, so no error figure is given.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pkgutil
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from hostspeed import HostSpeed
from layers import LAYERS, EngineTap, LayerTracer
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: fresh sweep stores and the span dump.
WORK_DIR = ROOT / ".perfbench"

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Clock of the end-to-end host times: CPU seconds of this process.  The
#: benchmark is one thread that hardly waits (a few small file writes per
#: decode_kernel run), so on an idle host this equals the wall time, within
#: half a percent on a 2-vCPU Xeon virtual machine.  Unlike the wall time it
#: leaves out time the CPU was taken from the process: by the host-speed probe
#: that shares its CPU, by other processes, or by the hypervisor in a virtual
#: machine whose kernel accounts steal time.
HOST_CLOCK = time.process_time

#: Imported on every set-up.  Arbiters and throttles register lazily, so their
#: packages are walked to have every class the layer tracer wraps.
PROGRAM_MODULES = ("repro.api", "repro.sweep", "repro.serve", "repro.cluster")
PROGRAM_PACKAGES = ("repro.arbiter", "repro.throttle")

NOTES = (
    "simulated numbers are the program's answer, checked and printed, never "
    "ranked; the model is unvalidated against hardware, so no error figure is "
    "given (the paper's 1.26x BMA speedup is context, not a reference)",
    "host: runs follow one another (closed loop of one); serving arrivals are "
    "open-loop Poisson in simulated time; the modelled LLC starts empty on "
    "every engine run",
)


def load_program(clock) -> float:
    """Import the program afresh, dropping any earlier import; returns seconds."""

    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    start = clock()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    for package in PROGRAM_PACKAGES:
        for info in pkgutil.iter_modules(importlib.import_module(package).__path__):
            importlib.import_module(f"{package}.{info.name}")
    return clock() - start


@dataclass(slots=True)
class Pass:
    """One set-up (and, when timed, runs) on one fresh import of the program."""

    workload: object
    tracer: LayerTracer | None
    import_s: float
    setup_s: float
    setup_outcome: Outcome | None
    run_s: float = 0.0
    run_outcome: Outcome | None = None

    @property
    def wall_s(self) -> float:
        """Set-up (without import) plus the run: the span a tracer can cover."""

        return self.setup_s + self.run_s

    @property
    def outcomes(self) -> list[Outcome]:
        return [o for o in (self.setup_outcome, self.run_outcome) if o is not None]


def set_up(workload_cls, seed: int, clock, run_id: str | None = None) -> Pass:
    """Times are read from ``clock``; a traced pass (``run_id``) needs the
    clock of the tracer's spans, ``time.perf_counter``."""

    gc.collect()
    import_s = load_program(clock)
    tap = EngineTap()
    tracer = LayerTracer(run_id) if run_id is not None else None
    workload = workload_cls(seed, tap, WORK_DIR)
    start = clock()
    with tracer.phase("setup") if tracer else nullcontext():
        outcome = workload.setup()
    return Pass(workload, tracer, import_s, clock() - start, outcome)


def timed_run(p: Pass, clock) -> tuple[float, Outcome]:
    gc.collect()
    start = clock()
    with p.tracer.phase("run") if p.tracer else nullcontext():
        outcome = p.workload.run()
    return clock() - start, outcome


def full_pass(workload_cls, seed: int, run_id: str | None = None) -> Pass:
    p = set_up(workload_cls, seed, time.perf_counter, run_id)
    p.run_s, p.run_outcome = timed_run(p, time.perf_counter)
    return p


# -- metrics ------------------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setups: list[float], runs: list[tuple[float, Outcome]]) -> dict:
    """Medians over set-ups and runs, their host seconds at reference speed."""

    med = statistics.median
    return {
        "setup_s": (med(setups), "s"),
        "wall_s": (med(wall for wall, _ in runs), "s"),
        "sim_cycles_per_s": (med(o.sim_cycles / wall for wall, o in runs), "cycles/s"),
        "steps_per_s": (med(o.steps / wall for wall, o in runs), "steps/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(p: Pass, k: float, overhead: float) -> dict:
    """Per-layer metrics of one traced pass (set-up plus one run).

    Host times are self times at reference host speed (factor ``k``); counts
    and ratios come from the pass's result objects (``SimResult``,
    ``ServeMetrics``, ``ClusterMetrics``) or, for calls, from the wrapped
    boundaries.
    """

    t = p.tracer
    engine = [r for o in p.outcomes for r in o.engine]
    serving = [m for o in p.outcomes for m in o.serving]
    serve = [m for m in serving if not hasattr(m, "replicas")]
    fleets = [m for m in serving if hasattr(m, "replicas")]
    llc_hits = sum(r.llc.hits for r in engine)
    llc_misses = sum(r.llc.misses for r in engine)
    row_hits = sum(r.dram.row_hits for r in engine)
    row_total = sum(r.dram.row_hits + r.dram.row_misses + r.dram.row_conflicts for r in engine)
    ticks = t.layer_calls("cores", "tick")
    cycles = sum(r.cycles for r in engine)
    lookups = t.layer_calls("stepcost", "step_cycles")
    builds = t.span_count("step-cost build")
    kv_peaks = [m.meta["kv_peak_utilization"] for m in serving if "kv_peak_utilization" in m.meta]
    kv_peak = max(
        (max(v) if isinstance(v, list) else v for v in kv_peaks), default=0.0
    )
    preemptions = sum(
        sum(v) if isinstance(v, list) else v
        for v in (m.meta.get("preemptions", 0) for m in serving)
    )
    attributed = sum(t.self_s[layer] for layer in LAYERS)
    counts = {
        "cores.ticks": (ticks, "count"),
        "cores.mem_stall_share": (
            _ratio(sum(c.mem_stall_cycles for r in engine for c in r.cores), ticks),
            "ratio",
        ),
        "llc.hit_ratio": (_ratio(llc_hits, llc_hits + llc_misses), "ratio"),
        "llc.mshr_merge_ratio": (
            _ratio(sum(r.llc.mshr_merges for r in engine), llc_misses),
            "ratio",
        ),
        "llc.stall_cycles": (sum(r.llc.stall_cycles for r in engine), "cycles"),
        "arbiter.grants": (t.layer_calls("arbiter", "arbitrate_port"), "count"),
        "noc.requests": (sum(r.noc_requests for r in engine), "count"),
        "dram.reads": (sum(r.dram.reads for r in engine), "count"),
        "dram.writes": (sum(r.dram.writes for r in engine), "count"),
        "dram.row_hit_ratio": (_ratio(row_hits, row_total), "ratio"),
        "engine.cycles": (cycles, "cycles"),
        "engine.host_us_per_cycle": (
            _ratio(t.span_seconds("engine run") * k * 1e6, cycles),
            "us/cycle",
        ),
        "trace.thread_blocks": (sum(r.thread_blocks for r in engine), "count"),
        "sweep.points": (t.span_count("sweep point"), "count"),
        "stepcost.misses": (builds, "count"),
        "stepcost.hits": (lookups - builds, "count"),
        "stepcost.hit_ratio": (_ratio(lookups - builds, lookups), "ratio"),
        "serve.steps": (sum(m.steps for m in serve), "count"),
        "serve.prefill_steps": (sum(m.meta.get("prefill_steps", 0) for m in serve), "count"),
        "cluster.steps": (sum(m.steps for m in fleets), "count"),
        "router.calls": (t.layer_calls("router"), "count"),
        "kv.preemptions": (preemptions, "count"),
        "kv.peak_utilization": (kv_peak, "ratio"),
    }
    metrics = {f"{layer}.host_s": (t.self_s[layer] * k, "s") for layer in LAYERS}
    metrics.update(counts)
    metrics["unattributed.host_s"] = ((p.wall_s - attributed) * k, "s")
    metrics["traced.wall_s"] = (p.wall_s * k, "s")
    metrics["tracing.overhead"] = (overhead, "ratio")
    return metrics


# -- reporting ----------------------------------------------------------------------------
def check_outcomes(outcomes: list[Outcome]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over every outcome of the set."""

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    digests = sorted({o.digest for o in outcomes})
    if len(digests) > 1:
        problems.append(f"simulated outputs differ between runs: {digests}")
    return not problems and failed == 0, attempted, failed, problems


def print_report(name: str, args, outcomes: list[Outcome], metrics: dict, extra: list[str]):
    correct, attempted, failed, problems = check_outcomes(outcomes)
    print(f"perfbench {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for note in NOTES:
        print(f"  note: {note}")
    print(
        f"  digest: {outcomes[-1].digest[:16]} "
        f"({len(outcomes)} outputs, {'identical' if len({o.digest for o in outcomes}) == 1 else 'DIFFERENT'})"
    )
    for key, value in outcomes[-1].headline.items():
        print(f"  simulated {key}: {value:.6g}")
    print(
        f"  operations: {attempted} attempted, {failed} failed, "
        f"failed_share {_ratio(failed, attempted):.6g}"
    )
    for line in extra:
        print(f"  {line}")
    for key, (value, unit) in metrics.items():
        print(f"  {key}: {value:.6g} {unit}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()
                },
            }
        )
    )


def measure(workload_cls, args, speed: HostSpeed) -> None:
    setups: list[Pass] = []
    setup_s: list[float] = []
    for _ in range(SETUP_REPEATS):
        setups.append(set_up(workload_cls, args.seed, HOST_CLOCK))
        setup_s.append((setups[-1].import_s + setups[-1].setup_s) * speed.scale())
    measured: list[float] = []
    runs: list[tuple[float, Outcome]] = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        host_s, outcome = timed_run(setups[-1], HOST_CLOCK)
        # Keep the verdict and the digest, not the result objects, so that the
        # peak memory does not grow with the number of runs the host allows.
        outcome.engine, outcome.serving = [], []
        measured.append(host_s)
        runs.append((host_s * speed.scale(), outcome))
    outcomes = [o for p in setups for o in p.outcomes] + [o for _, o in runs]
    extra = [
        f"timed runs: {len(runs)}, set-ups: {len(setups)}",
        speed.line(f"measured run median {statistics.median(measured):.4g} CPU s"),
    ]
    print_report(workload_cls.name, args, outcomes, end_to_end(setup_s, runs), extra)


def trace_layers(workload_cls, args, speed: HostSpeed) -> None:
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(full_pass(workload_cls, args.seed))
        speed.scale()
        run_id = f"{workload_cls.name}-seed{args.seed}-pass{len(traced)}"
        traced.append(full_pass(workload_cls, args.seed, run_id))
        speed.scale()
    k = speed.overall()
    walls = [p.wall_s for p in traced]
    overhead = statistics.median(walls) / statistics.median(p.wall_s for p in untraced)
    # The median traced pass, whose self times sum to its own traced wall.
    chosen = traced[sorted(range(len(traced)), key=walls.__getitem__)[(len(traced) - 1) // 2]]
    metrics = per_layer(chosen, k, overhead)
    components = sum(chosen.tracer.self_s[n] for n in ("cores", "llc", "arbiter", "noc", "dram"))
    engine_total = chosen.tracer.span_seconds("engine run")
    extra = [
        f"passes: {len(traced)} untraced + {len(traced)} traced; layers from {chosen.tracer.run_id}",
        speed.line(f"traced host times scaled by {k:.4g}; measured traced wall {chosen.wall_s:.4g} s"),
        f"cores+llc+arbiter+noc+dram self time / engine-run time: "
        f"{_ratio(components, engine_total):.3f}",
    ]
    dump = WORK_DIR / f"trace-{workload_cls.name}-seed{args.seed}.json"
    dump.write_text(json.dumps([p.tracer.dump() for p in traced]))
    extra.append(f"spans written to {dump.relative_to(ROOT)}")
    outcomes = [o for p in untraced + traced for o in p.outcomes]
    print_report(workload_cls.name, args, outcomes, metrics, extra)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)
    workload_cls = WORKLOADS[args.workload]
    with HostSpeed() as speed:
        (trace_layers if args.trace else measure)(workload_cls, args, speed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
