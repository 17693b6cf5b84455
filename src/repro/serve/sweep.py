"""Serving sweep grids: arrival-rate and fleet studies through the executor.

A sweep spec names a cartesian grid of serving scenarios and expands it into
:class:`ServingPoint` job descriptors.  :class:`ServeSweepSpec` sweeps
workloads x arrival processes x rates x schedulers x prefill chunks x policies
x KV budgets x KV blocks x preemptions; its cluster counterpart,
:class:`~repro.cluster.sweep.ClusterSweepSpec`, adds replica counts and
routers after the rate axis.  Both share one definition of the common axes,
their validation, expansion and (de)serialization.

ServingPoints satisfy the same contract as :class:`~repro.sweep.spec.
SweepPoint` (``key()`` / ``label`` / ``describe()`` / ``config_dict()`` /
``execute()``), so they run through the existing
:func:`repro.sweep.executor.run_sweep` process pool and persist into the same
JSON-lines :class:`~repro.sweep.store.ResultStore` under their scenario's
``"serve"`` or ``"cluster"`` kind tag, resumable and content-deduplicated
exactly like kernel-level sweeps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, ClassVar

from repro.common.errors import ConfigError
from repro.config.scale import ScaleTier, parse_tier
from repro.registry import (
    ARRIVALS,
    PREEMPTIONS,
    SCHEDULERS,
    WORKLOADS,
    resolve_policy,
    resolve_system,
)
from repro.serve.kvcache import DEFAULT_SWAP_MS
from repro.serve.request import DEFAULT_OUTPUT_TOKENS, DEFAULT_PROMPT_TOKENS
from repro.serve.scenario import DEFAULT_SCHEDULER, DEFAULT_SERVE_SYSTEM, ServeScenario
from repro.serve.schedpolicy import DEFAULT_PREFILL_CHUNK

if TYPE_CHECKING:
    from repro.cluster.scenario import ClusterScenario


@dataclass(frozen=True, slots=True)
class ServingPoint:
    """One fully described serve or cluster job, executable in any worker.

    The scenario names its components through the registries, which every
    worker can resolve (built-in arrival processes and routers bootstrap on
    first lookup), so the point pickles small and needs no pre-resolved
    configuration.
    """

    label: str
    scenario: ServeScenario | ClusterScenario
    #: Sorted (axis, value) pairs locating the point in its grid.
    coords: tuple[tuple[str, object], ...] = ()
    #: Lazily memoized content hash.
    _key: str | None = field(default=None, init=False, repr=False, compare=False)

    def config_dict(self) -> dict:
        return {"kind": self.scenario.result_kind, "scenario": self.scenario.config_dict()}

    def key(self) -> str:
        """Content hash identifying this simulation (labels excluded)."""

        if self._key is None:
            # Lazy memo of a derived field (compare=False): identity unchanged.
            object.__setattr__(self, "_key", self.scenario.key())  # repro: noqa[API001]
        return self._key

    def coord(self, axis: str, default=None):
        for name, value in self.coords:
            if name == axis:
                return value
        return default

    def describe(self) -> str:
        return f"{self.label}: {self.scenario.describe()}"

    def execute(self):
        """Run the simulation (the executor's worker entry point)."""

        return replace(self.scenario.run(), label=self.label)


def _plain(value):
    """A spec field as JSON-able data (tuples become lists, tiers names)."""

    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, ScaleTier):
        return value.name
    return value


@dataclass(frozen=True, slots=True)
class ServingSweepSpec:
    """The grid axes and constants serve and cluster sweeps share.

    Workloads, arrival processes, schedulers, policies and preemptions are
    registry names; ``rates`` is the traffic axis (requests/s open-loop, users
    closed-loop), ``schedulers`` x ``prefill_chunks`` the prefill-scheduling
    axes and ``kv_budgets`` x ``kv_blocks`` x ``preemptions`` the KV-memory
    axes (the defaults keep KV accounting off).  Every other field is applied
    to every point.  Subclasses name their axes in :attr:`AXES` and build one
    scenario per grid cell in :meth:`scenario`.
    """

    #: (spec field, scenario field, plural noun), in expansion order.
    AXES: ClassVar[tuple[tuple[str, str, str], ...]] = (
        ("workloads", "workload", "workloads"),
        ("arrivals", "arrival", "arrivals"),
        ("rates", "rate", "rates"),
        ("schedulers", "scheduler", "schedulers"),
        ("prefill_chunks", "prefill_chunk", "chunks"),
        ("policies", "policy", "policies"),
        ("kv_budgets", "kv_budget", "KV budgets"),
        ("kv_blocks", "kv_block", "KV blocks"),
        ("preemptions", "preemption", "preemptions"),
    )

    workloads: tuple[str, ...]
    rates: tuple[float, ...]
    arrivals: tuple[str, ...] = ("poisson",)
    schedulers: tuple[str, ...] = (DEFAULT_SCHEDULER,)
    prefill_chunks: tuple[int, ...] = (DEFAULT_PREFILL_CHUNK,)
    policies: tuple[str, ...] = ("unopt",)
    num_requests: int = 32
    max_batch: int = 4
    seed: int = 0
    prefill_cost: bool = True
    #: System preset of every point (broadcast to every replica of a fleet).
    system: str = DEFAULT_SERVE_SYSTEM
    tier: ScaleTier = ScaleTier.CI
    prompt_tokens: tuple[int, int] = DEFAULT_PROMPT_TOKENS
    output_tokens: tuple[int, int] = DEFAULT_OUTPUT_TOKENS
    slo_ttft_ms: float | None = None
    slo_latency_ms: float | None = None
    max_cycles: int | None = None
    #: Telemetry sampling cadence (simulated ms) applied to every point; None
    #: keeps sampling off and every point's content hash pre-telemetry.
    telemetry_ms: float | None = None
    #: KV-budget axis: token counts and/or "system"; (None,) keeps KV off.
    kv_budgets: tuple[int | str | None, ...] = (None,)
    #: Paged-KV block-size axis (tokens per block).
    kv_blocks: tuple[int, ...] = (1,)
    #: Preemption-policy axis (PREEMPTIONS registry names).
    preemptions: tuple[str, ...] = ("recompute",)
    #: One-way KV swap transfer latency (ms), applied to every point.
    kv_swap_ms: float = DEFAULT_SWAP_MS

    def validate(self):
        for axis, _, _ in self.AXES:
            if not getattr(self, axis):
                raise ConfigError(f"{type(self).__name__}.{axis} must be non-empty")
        for registry, names in (
            (WORKLOADS, self.workloads),  # raises ConfigError listing known names
            (ARRIVALS, self.arrivals),
            (SCHEDULERS, self.schedulers),
            (PREEMPTIONS, self.preemptions),
        ):
            for name in names:
                registry.get(name)
        for policy in self.policies:
            resolve_policy(policy)
        for budget in self.kv_budgets:
            if budget is None or budget == "system":
                continue
            if not isinstance(budget, int) or budget <= 0:
                raise ConfigError(
                    f'kv_budgets entries must be positive token counts, "system" '
                    f"or None, got {budget!r}"
                )
        for axis in ("rates", "prefill_chunks", "kv_blocks"):
            if any(value <= 0 for value in getattr(self, axis)):
                raise ConfigError(f"{axis} must be positive")
        if self.kv_swap_ms < 0:
            raise ConfigError("kv_swap_ms must be non-negative")
        resolve_system(self.system)
        if self.num_requests <= 0:
            raise ConfigError("num_requests must be positive")
        if self.max_batch <= 0:
            raise ConfigError("max_batch must be positive")
        if self.telemetry_ms is not None and self.telemetry_ms <= 0:
            raise ConfigError("telemetry_ms must be positive")
        return self

    @property
    def num_points(self) -> int:
        return math.prod(len(getattr(self, axis)) for axis, _, _ in self.AXES)

    def scenario(self, **cell):
        """The scenario of one grid cell (``cell`` maps scenario fields to
        axis values)."""

        raise NotImplementedError

    def _constants(self) -> dict:
        """The scenario fields every point shares (all but the axes and system)."""

        axes = {axis for axis, _, _ in self.AXES}
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in axes and f.name != "system"
        }

    def scenarios(self) -> tuple:
        """The grid as scenario objects, in expansion order."""

        self.validate()
        names = [name for _, name, _ in self.AXES]
        values = [getattr(self, axis) for axis, _, _ in self.AXES]
        return tuple(
            self.scenario(**dict(zip(names, cell, strict=True)))
            for cell in itertools.product(*values)
        )

    def expand(self) -> tuple[ServingPoint, ...]:
        """Expand the grid into serving points, in deterministic order."""

        points = []
        for scenario in self.scenarios():
            coords = {
                "model" if name == "workload" else name: getattr(scenario, name)
                for _, name, _ in self.AXES
            }
            coords["tier"] = scenario.tier.name
            points.append(
                ServingPoint(
                    label=f"{scenario.display_label}@{scenario.rate:g}",
                    scenario=scenario,
                    coords=tuple(sorted(coords.items(), key=lambda kv: kv[0])),
                )
            )
        return tuple(points)

    # -- (de)serialization for CLI spec files -------------------------------------------
    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict):
        kwargs = {}
        for f in fields(cls):
            if f.name in data:
                value = data[f.name]
                if f.name == "tier":
                    value = parse_tier(value)
                elif isinstance(value, list):
                    value = tuple(value)
                kwargs[f.name] = value
        return cls(**kwargs).validate()


@dataclass(frozen=True, slots=True)
class ServeSweepSpec(ServingSweepSpec):
    """A declarative cartesian grid of single-accelerator serving points.

    Expansion order is workload -> arrival -> rate -> scheduler -> chunk ->
    policy -> kv-budget -> kv-block -> preemption.
    """

    def scenario(self, **cell) -> ServeScenario:
        return ServeScenario(system=self.system, **self._constants(), **cell)
