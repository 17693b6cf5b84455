"""Store and spec compatibility: content hashes and spec dicts are frozen.

A result store resumes by content hash, so any change to how a serving or
cluster point hashes -- or to how a sweep spec expands or serializes --
silently orphans every stored result.  The literals below were captured from
the scenarios and specs as they stood before serve and cluster shared one
point class and one spec definition; they must never change.
"""

import json

import pytest

from repro.cluster.sweep import ClusterSweepSpec
from repro.serve.sweep import ServeSweepSpec
from tests.golden.scenarios import (
    golden_cluster_disaggregated_scenario,
    golden_cluster_scenario,
    golden_serve_chunked_scenario,
    golden_serve_decode_only_scenario,
    golden_serve_scenario,
)

GOLDEN_KEYS = [
    (golden_serve_scenario,
     "d5621f02c2beb48f6065d3bf274d87474e384bb1f9ea5c00328a46a9c9c3dbc0"),
    (golden_serve_chunked_scenario,
     "cd0c628b653efdd269e1c5ffbe3af0c511c1e9084dd87d29aed3d5c0b620d206"),
    (golden_serve_decode_only_scenario,
     "36bc70ceda9882aee5abe79333f0c65abc31ad413cfd7de8606c44fa9fbee56c"),
    (golden_cluster_scenario,
     "89899ccdf95a414c984bf57bbb9e47bd7657f65d4d6e358a8eb7d26677688acc"),
    (golden_cluster_disaggregated_scenario,
     "f0a4ff58acd9216dcf14566f8eb0a19d7292c1c72f322e4b5b0150bd906ed497"),
]


def serve_spec() -> ServeSweepSpec:
    return ServeSweepSpec(
        workloads=("llama3-70b",), rates=(1000.0, 2000.0),
        schedulers=("decode-first", "chunked"), kv_budgets=(None, 1024),
    )


def cluster_spec() -> ClusterSweepSpec:
    return ClusterSweepSpec(
        workloads=("llama3-70b",), rates=(1000.0,), replica_counts=(2, 4),
        routers=("round-robin", "least-outstanding"), kv_budgets=(None, "system"),
    )


SERVE_SPEC_DICT = {
    "workloads": ["llama3-70b"], "rates": [1000.0, 2000.0],
    "arrivals": ["poisson"], "schedulers": ["decode-first", "chunked"],
    "prefill_chunks": [256], "policies": ["unopt"], "num_requests": 32,
    "max_batch": 4, "seed": 0, "prefill_cost": True, "system": "table5",
    "tier": "CI", "prompt_tokens": [128, 1024], "output_tokens": [16, 64],
    "slo_ttft_ms": None, "slo_latency_ms": None, "max_cycles": None,
    "telemetry_ms": None, "kv_budgets": [None, 1024], "kv_blocks": [1],
    "preemptions": ["recompute"], "kv_swap_ms": 0.1,
}

CLUSTER_SPEC_DICT = {
    **SERVE_SPEC_DICT,
    "rates": [1000.0], "schedulers": ["decode-first"],
    "kv_budgets": [None, "system"],
    "replica_counts": [2, 4], "routers": ["round-robin", "least-outstanding"],
}


@pytest.mark.parametrize(
    "build,key", GOLDEN_KEYS, ids=[build.__name__ for build, _ in GOLDEN_KEYS]
)
def test_golden_scenario_keys_are_frozen(build, key):
    assert build().key() == key


class TestServeSpec:
    def test_first_and_last_point(self):
        points = serve_spec().expand()
        first = points[0]
        assert first.key() == (
            "c6267185cd0603d0af02c2d5229d8cbf00911aaef0f3e62281ed91ecc6b5f3ab"
        )
        assert points[-1].key() == (
            "94f5c9267ec16416f1db23b941d98bb9f1e0b9858388da215f6fcac4a22b53fd"
        )
        assert first.label == "unopt@poisson@1000"
        assert first.coords == (
            ("arrival", "poisson"), ("kv_block", 1), ("kv_budget", None),
            ("model", "llama3-70b"), ("policy", "unopt"),
            ("preemption", "recompute"), ("prefill_chunk", 256),
            ("rate", 1000.0), ("scheduler", "decode-first"), ("tier", "CI"),
        )
        assert first.describe() == (
            "unopt@poisson@1000: serve llama3-70b poisson@1000 decode-first "
            "n=32 b<=4 seed=0"
        )
        assert first.config_dict()["kind"] == "serve"

    def test_dict_round_trip(self):
        spec = serve_spec()
        data = spec.to_dict()
        assert data == SERVE_SPEC_DICT
        assert ServeSweepSpec.from_dict(json.loads(json.dumps(data))) == spec


class TestClusterSpec:
    def test_first_and_last_point(self):
        points = cluster_spec().expand()
        first = points[0]
        assert first.key() == (
            "9157d003287a5559cc724e333e05ad7e1dac522d8f3927c7c6ac248fdb4d5c12"
        )
        assert points[-1].key() == (
            "b88884284970d3e341543865cbf174f70b93d982f47d3d9f882b9e76cfb91881"
        )
        assert first.label == "round-robinx2@poisson@1000"
        assert first.coords == (
            ("arrival", "poisson"), ("kv_block", 1), ("kv_budget", None),
            ("model", "llama3-70b"), ("policy", "unopt"),
            ("preemption", "recompute"), ("prefill_chunk", 256),
            ("rate", 1000.0), ("replicas", 2), ("router", "round-robin"),
            ("scheduler", "decode-first"), ("tier", "CI"),
        )
        assert first.describe() == (
            "round-robinx2@poisson@1000: cluster llama3-70b x2 round-robin "
            "decode-first poisson@1000 n=32 b<=4 seed=0"
        )
        assert first.config_dict()["kind"] == "cluster"

    def test_dict_round_trip(self):
        spec = cluster_spec()
        data = spec.to_dict()
        assert data == CLUSTER_SPEC_DICT
        assert ClusterSweepSpec.from_dict(json.loads(json.dumps(data))) == spec
