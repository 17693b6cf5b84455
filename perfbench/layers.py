"""Layer tracing from outside the program.

:class:`LayerTracer` wraps public functions and methods of the imported
``repro`` modules (it changes no source file) and keeps, in memory:

* the self time of every layer: a wrapped call's span minus the spans of the
  wrapped calls it made, so the layers' self times never overlap;
* call counts per boundary (``Class.method``), at per-cycle boundaries too;
* coarse spans (sweep point, engine run, step-cost build, serving run, fleet
  run, trace generation) with name, start, end, parent and the id of the run
  they belong to.

:class:`EngineTap` keeps every :class:`~repro.sim.results.SimResult` the cycle
engine returns, so each one can be checked; it runs in untraced passes too and
costs one extra call per engine run.

Both are installed on a fresh import of the program (see ``run.load_program``),
so a pass never inherits another pass's wrappers.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

#: Per-layer self-time names, in report order (the module each one covers is
#: given by :func:`boundaries`).
LAYERS = (
    "cores",
    "llc",
    "arbiter",
    "noc",
    "dram",
    "throttle",
    "engine",
    "trace",
    "sweep",
    "stepcost",
    "serve",
    "cluster",
    "router",
    "kv",
)

#: Arbiter entry points the LLC slices call every cycle.
ARBITER_METHODS = (
    "select",
    "notify_selected",
    "notify_hit",
    "notify_fill",
    "notify_outcome",
    "arbitrate_port",
)


@dataclass(frozen=True, slots=True)
class Boundary:
    """One wrapped callable: ``owner.attr`` belongs to ``layer``.

    ``span`` names the coarse span recorded per call (None: counts and time
    only).  With ``span_if_nested`` the span is kept only when the call
    contained another span -- a step-cost lookup is a *build* only when it ran
    the engine.
    """

    layer: str
    owner: object
    attr: str
    span: str | None = None
    span_if_nested: bool = False


def _module(name: str):
    return sys.modules[name]


def _family(base: type) -> list[type]:
    """``base`` and every subclass of it, depth first."""

    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _own_methods(layer: str, cls: type, names) -> list[Boundary]:
    """Methods among ``names`` that ``cls`` itself defines (not inherited)."""

    return [
        Boundary(layer, cls, name)
        for name in names
        if inspect.isfunction(cls.__dict__.get(name))
    ]


def _public_methods(layer: str, cls: type) -> list[Boundary]:
    names = [name for name in cls.__dict__ if not name.startswith("_")]
    return _own_methods(layer, cls, names)


def _family_methods(layer: str, base: type, names) -> list[Boundary]:
    return [b for cls in _family(base) for b in _own_methods(layer, cls, names)]


def boundaries() -> list[Boundary]:
    """The layer boundaries of the imported program, per the benchmark's layer table."""

    core = _module("repro.cores.core")
    llc = _module("repro.llc.llc")
    llc_slice = _module("repro.llc.slice")
    arbiter = _module("repro.arbiter.base")
    noc = _module("repro.noc.interconnect")
    dram = _module("repro.dram.system")
    throttle = _module("repro.throttle.base")
    simulator = _module("repro.sim.simulator")
    generator = _module("repro.trace.generator")
    executor = _module("repro.sweep.executor")
    spec = _module("repro.sweep.spec")
    store = _module("repro.sweep.store")
    stepcost = _module("repro.serve.stepcost")
    serve_sim = _module("repro.serve.simulator")
    scheduler = _module("repro.serve.scheduler")
    schedpolicy = _module("repro.serve.schedpolicy")
    kvcache = _module("repro.serve.kvcache")
    cluster_sim = _module("repro.cluster.simulator")
    router = _module("repro.cluster.router")
    return [
        *_own_methods("cores", core.VectorCore, ("tick", "receive")),
        *_own_methods("llc", llc.SlicedLLC, ("tick", "on_dram_fill")),
        *_own_methods("llc", llc_slice.LLCSlice, ("accept_request",)),
        *_family_methods("arbiter", arbiter.BaseArbiter, ARBITER_METHODS),
        *_own_methods("noc", noc.Interconnect, ("tick", "send_request", "send_response")),
        *_own_methods("dram", dram.DramSystem, ("tick", "enqueue")),
        *_family_methods("throttle", throttle.ThrottleController, ("tick",)),
        Boundary("engine", simulator.Simulator, "__init__"),
        Boundary("engine", simulator.Simulator, "run", span="engine run"),
        Boundary("trace", generator, "generate_trace", span="trace generation"),
        Boundary("sweep", executor, "run_sweep"),
        Boundary("sweep", spec.SweepPoint, "execute", span="sweep point"),
        *_own_methods("sweep", store.ResultStore, ("put", "result_for")),
        Boundary(
            "stepcost",
            stepcost.SimStepCostModel,
            "step_cycles",
            span="step-cost build",
            span_if_nested=True,
        ),
        *_own_methods("stepcost", stepcost.SimStepCostModel, ("prefill_cycles",)),
        Boundary("serve", serve_sim.ServingSimulator, "run", span="serving run"),
        Boundary("serve", serve_sim, "plan_cycles"),
        Boundary("serve", serve_sim, "complete_step"),
        *_public_methods("serve", scheduler.ContinuousBatchScheduler),
        *_family_methods("serve", schedpolicy.SchedulerPolicy, ("plan",)),
        Boundary("cluster", cluster_sim.ClusterSimulator, "run", span="fleet run"),
        *_public_methods("cluster", cluster_sim.ReplicaSim),
        *_family_methods("router", router.Router, ("select",)),
        *_public_methods("kv", kvcache.KVCacheManager),
        *_family_methods("kv", kvcache.PreemptionPolicy, ("preempt",)),
    ]


def _replace(owner: object, attr: str, new) -> None:
    """Rebind ``owner.attr``; a module-level function is rebound in every
    ``repro`` module that imported it by name, so callers see the wrapper."""

    old = getattr(owner, attr)
    setattr(owner, attr, new)
    if inspect.ismodule(owner):
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, attr, None) is old:
                setattr(module, attr, new)


class EngineTap:
    """Keeps every result the cycle engine returns (``Simulator.run``)."""

    def __init__(self) -> None:
        self.results: list = []
        simulator = _module("repro.sim.simulator").Simulator
        run = simulator.run
        results = self.results

        def run_and_keep(engine, *args, **kwargs):
            result = run(engine, *args, **kwargs)
            results.append(result)
            return result

        simulator.run = run_and_keep

    def drain(self) -> list:
        out = list(self.results)
        self.results.clear()
        return out


class LayerTracer:
    """Self time, call counts and coarse spans of the program's layers."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.self_s: dict[str, float] = defaultdict(float)
        #: (layer, "Class.method") -> calls
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.spans: list[dict] = []
        self._child: list[float] = []
        self._open: list[int] = []
        self._next_id = 0
        self._t0 = time.perf_counter()
        for boundary in boundaries():
            self._install(boundary)

    # -- installation -------------------------------------------------------------------
    def _install(self, b: Boundary) -> None:
        fn = getattr(b.owner, b.attr)
        qualname = (
            f"{b.owner.__name__}.{b.attr}"
            if not inspect.ismodule(b.owner)
            else b.attr
        )
        key = (b.layer, qualname)
        wrapped = (
            self._counted(b.layer, key, fn)
            if b.span is None
            else self._spanned(b.layer, key, fn, b.span, b.span_if_nested)
        )
        _replace(b.owner, b.attr, wrapped)

    def _counted(self, layer: str, key, fn):
        child, self_s, calls, clock = self._child, self.self_s, self.calls, time.perf_counter

        def traced(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - child.pop()
                calls[key] += 1
                if child:
                    child[-1] += elapsed

        return traced

    def _spanned(self, layer: str, key, fn, name: str, if_nested: bool):
        child, self_s, calls, clock = self._child, self.self_s, self.calls, time.perf_counter

        def traced(*args, **kwargs):
            span_id, parent = self._enter()
            recorded = len(self.spans)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                self_s[layer] += elapsed - child.pop()
                calls[key] += 1
                if child:
                    child[-1] += elapsed
                self._open.pop()
                if not if_nested or len(self.spans) > recorded:
                    self._record(name, layer, span_id, parent, start, end)

        return traced

    # -- spans --------------------------------------------------------------------------
    def _enter(self) -> tuple[int, int | None]:
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(self._next_id)
        return self._next_id, parent

    def _record(self, name, layer, span_id, parent, start, end) -> None:
        self.spans.append(
            {
                "name": name,
                "layer": layer,
                "id": span_id,
                "parent": parent,
                "run": self.run_id,
                "start_s": start - self._t0,
                "end_s": end - self._t0,
            }
        )

    @contextmanager
    def phase(self, name: str):
        """A root span of the benchmark's own (``setup`` / ``run``); not a layer."""

        span_id, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._open.pop()
            self._record(name, None, span_id, parent, start, time.perf_counter())

    # -- queries ------------------------------------------------------------------------
    def layer_calls(self, layer: str, method: str | None = None) -> int:
        return sum(
            n
            for (lay, qualname), n in self.calls.items()
            if lay == layer and (method is None or qualname.endswith("." + method))
        )

    def span_seconds(self, name: str) -> float:
        return sum(s["end_s"] - s["start_s"] for s in self.spans if s["name"] == name)

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def dump(self) -> dict:
        return {
            "run": self.run_id,
            "self_s": dict(self.self_s),
            "calls": {f"{layer}:{name}": n for (layer, name), n in sorted(self.calls.items())},
            "spans": self.spans,
        }
