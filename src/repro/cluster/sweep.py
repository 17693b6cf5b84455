"""Cluster sweep grids: fleet-sizing and routing studies through the executor.

A :class:`ClusterSweepSpec` is a serving sweep grid
(:class:`~repro.serve.sweep.ServingSweepSpec`) with two more axes after the
rate -- replica counts and routers -- and expands into the same
:class:`~repro.serve.sweep.ServingPoint` job descriptors, stored under the
``"cluster"`` kind tag.  Kernel, serve and cluster points mix freely in one
result store.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.scenario import DEFAULT_ROUTER, ClusterScenario
from repro.common.errors import ConfigError
from repro.registry import ROUTERS
from repro.serve.sweep import ServingSweepSpec


@dataclass(frozen=True, slots=True)
class ClusterSweepSpec(ServingSweepSpec):
    """A declarative cartesian grid of cluster points.

    ``replica_counts`` is the fleet-size axis and ``routers`` the routing
    axis.  Expansion order is workload -> arrival -> rate -> replicas ->
    router -> scheduler -> chunk -> policy -> kv-budget -> kv-block ->
    preemption.  Grid sweeps are homogeneous (one ``system`` preset broadcast
    to every replica); heterogeneous fleets are a per-scenario concern --
    construct :class:`ClusterScenario` directly for those.
    """

    AXES = (
        *ServingSweepSpec.AXES[:3],
        ("replica_counts", "replicas", "fleet sizes"),
        ("routers", "router", "routers"),
        *ServingSweepSpec.AXES[3:],
    )

    replica_counts: tuple[int, ...] = (2,)
    routers: tuple[str, ...] = (DEFAULT_ROUTER,)

    def validate(self) -> "ClusterSweepSpec":
        for router in self.routers:
            ROUTERS.get(router)
        if any(n <= 0 for n in self.replica_counts):
            raise ConfigError("replica_counts must be positive")
        return ServingSweepSpec.validate(self)

    def scenario(self, **cell) -> ClusterScenario:
        return ClusterScenario(systems=(self.system,), **self._constants(), **cell)
