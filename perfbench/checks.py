"""Correctness gates and the simulated-output digest.

Every engine result must be complete and obey the memory-system conservation
laws; every serving run must finish every request it generated.  The digest is
a hash of the simulated outputs only (never of host timings), so two commits
that simulate the same thing print the same digest.
"""

from __future__ import annotations

import hashlib
import json
from importlib import import_module


def engine_problems(result) -> list[str]:
    """Why an engine result (``SimResult``) is wrong; empty when it is right."""

    llc, dram = result.llc, result.dram
    l1_hits = sum(core.l1_hits for core in result.cores)
    completed_blocks = sum(core.completed_blocks for core in result.cores)
    laws = {
        "status == completed": result.status == "completed",
        "all thread blocks done": completed_blocks == result.thread_blocks,
        "issued == l1_hits + noc_requests": (
            result.total_requests_issued == l1_hits + result.noc_requests
        ),
        "noc_requests == noc_responses == llc.requests_accepted": (
            result.noc_requests == result.noc_responses == llc.requests_accepted
        ),
        "requests_accepted == hits + misses": (
            llc.requests_accepted == llc.hits + llc.misses
        ),
        "misses == mshr_merges + mshr_allocations": (
            llc.misses == llc.mshr_merges + llc.mshr_allocations
        ),
        "dram.reads == mshr_allocations": dram.reads == llc.mshr_allocations,
    }
    return [
        f"engine run {result.label!r}: {law} does not hold"
        for law, holds in laws.items()
        if not holds
    ]


def serving_problems(metrics, expected_requests: int) -> tuple[int, list[str]]:
    """(requests failed, reasons) for a ``ServeMetrics`` or ``ClusterMetrics``.

    A request fails when it never finished or its record is malformed (its
    lifecycle timestamps out of order); every generated request must finish
    exactly once.
    """

    config_error = import_module("repro.common.errors").ConfigError
    problems = []
    valid_ids = set()
    for record in metrics.requests:
        try:
            record.validate()
        except config_error as exc:
            problems.append(f"request {record.request_id}: {exc}")
            continue
        valid_ids.add(record.request_id)
    if len(metrics.requests) != expected_requests:
        problems.append(
            f"{len(metrics.requests)} records for {expected_requests} requests"
        )
    return max(0, expected_requests - len(valid_ids)), problems


def digest(payload) -> str:
    """SHA-256 of the canonical JSON of ``payload`` (simulated outputs only)."""

    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
