"""Fixed-latency crossbar between cores and LLC slices.

The interconnect models (1) a fixed request latency from any core to any LLC
slice, (2) a per-slice injection port of limited width with a small staging
queue in front of the slice's request queue (the source of back-pressure that
stalls cores), and (3) the response path back to the cores.  Responses are
delivered with a fixed latency and are never back-pressured, matching the
paper's assumption that DRAM returns are forwarded straight to the requesting
cores (Fig 4, step 4').

Simulated time only moves forward, so no priority queue is needed: requests
share one latency and wait in a single FIFO, and responses wait in one FIFO
lane per extra delay, each ordered by delivery cycle.  Due responses of
several lanes are merged in (delivery cycle, send order), which is exact also
when latencies are 0 or ticks skip cycles.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.common.address import AddressMap
from repro.common.types import MemRequest, MemResponse
from repro.config.system import NoCConfig

#: Depth of the per-slice staging queue between the crossbar and the slice's
#: request queue.  Small by design: once the slice queue and this staging queue
#: are full, cores see back-pressure.
STAGING_DEPTH = 4


class Interconnect:
    """Crossbar connecting ``num_cores`` cores to ``num_slices`` LLC slices."""

    def __init__(
        self,
        config: NoCConfig,
        address_map: AddressMap,
        num_cores: int,
        num_slices: int,
    ) -> None:
        config.validate()
        self.config = config
        self.address_map = address_map
        self.num_cores = num_cores
        self.num_slices = num_slices

        self._request_latency = config.request_latency
        self._response_latency = config.response_latency
        #: (deliver cycle, slice, request), in send order.
        self._req_in_flight: deque[tuple[int, int, MemRequest]] = deque()
        #: extra delay -> (deliver cycle, send sequence, response), in send order.
        self._resp_lanes: dict[int, deque[tuple[int, int, MemResponse]]] = {}
        self._staging: list[deque[MemRequest]] = [deque() for _ in range(num_slices)]
        # Requests in transit or staged per slice, used for O(1) back-pressure checks.
        self._slice_load: list[int] = [0] * num_slices
        self._slice_load_limit = STAGING_DEPTH + config.request_latency
        #: Per slice, the wake callbacks of sleeping cores whose pending request
        #: targets it; called when the slice's port next takes a staged request.
        self._waiters: list[list[Callable[[], None]]] = [[] for _ in range(num_slices)]
        self._seq = 0

        # statistics
        self.requests_sent = 0
        self.responses_sent = 0
        self.backpressure_rejects = 0

    # -- request path ------------------------------------------------------------------
    def slice_of(self, addr: int) -> int:
        return self.address_map.slice_of(addr)

    def can_accept_request(self, addr: int) -> bool:
        """True when a request to ``addr`` can be injected this cycle."""

        slice_id = self.slice_of(addr)
        if self._slice_load[slice_id] >= self._slice_load_limit:
            self.backpressure_rejects += 1
            return False
        return True

    def send_request(self, req: MemRequest, cycle: int) -> bool:
        """Inject a request; returns False under back-pressure."""

        slice_id = self.address_map.slice_of(req.addr)
        if self._slice_load[slice_id] >= self._slice_load_limit:
            self.backpressure_rejects += 1
            return False
        self._req_in_flight.append((cycle + self._request_latency, slice_id, req))
        self._slice_load[slice_id] += 1
        self.requests_sent += 1
        return True

    def add_waiter(self, addr: int, wake: Callable[[], None]) -> None:
        """Call ``wake`` once the port of ``addr``'s slice returns a credit
        (takes a staged request), the only event that can end its back-pressure."""

        self._waiters[self.address_map.slice_of(addr)].append(wake)

    # -- response path ------------------------------------------------------------------
    def send_response(self, resp: MemResponse, cycle: int, extra_delay: int = 0) -> None:
        """Send a response back to its core after the NoC response latency."""

        lane = self._resp_lanes.get(extra_delay)
        if lane is None:
            lane = self._resp_lanes[extra_delay] = deque()
        lane.append((cycle + self._response_latency + extra_delay, self._seq, resp))
        self._seq += 1
        self.responses_sent += 1

    # -- per-cycle advance ----------------------------------------------------------------
    def tick(
        self,
        cycle: int,
        slice_sinks: list[Callable[[MemRequest, int], bool]],
        core_sinks: list[Callable[[MemResponse, int], None]],
    ) -> None:
        """Deliver due requests into slices and due responses into cores.

        ``slice_sinks[i]`` pushes a request into slice ``i``'s request queue and
        returns False when that queue is full (the request then waits in the
        staging queue); ``core_sinks[i]`` delivers a response to core ``i``.
        """

        # Requests whose transit delay elapsed move into the staging queues.
        in_flight = self._req_in_flight
        stagings = self._staging
        while in_flight and in_flight[0][0] <= cycle:
            _, slice_id, req = in_flight.popleft()
            stagings[slice_id].append(req)

        # Each slice port accepts a limited number of staged requests per cycle.
        width = self.config.slice_port_width
        for slice_id, staging in enumerate(stagings):
            if not staging:
                continue
            accepted = 0
            sink = slice_sinks[slice_id]
            while staging and accepted < width:
                req = staging[0]
                if not sink(req, cycle):
                    break
                staging.popleft()
                accepted += 1
            if accepted:
                self._slice_load[slice_id] -= accepted
                waiters = self._waiters[slice_id]
                if waiters:
                    for wake in waiters:
                        wake()
                    waiters.clear()

        # Responses are never back-pressured.
        due: list[tuple[int, int, MemResponse]] = []
        for lane in self._resp_lanes.values():
            while lane and lane[0][0] <= cycle:
                due.append(lane.popleft())
        due.sort()  # merge the lanes by (deliver, seq); the sequence is unique
        for _, _, resp in due:
            core_sinks[resp.core_id](resp, cycle)

    # -- engine support ----------------------------------------------------------------------
    @property
    def in_flight_requests(self) -> int:
        return len(self._req_in_flight)

    @property
    def in_flight_responses(self) -> int:
        return sum(len(lane) for lane in self._resp_lanes.values())

    @property
    def staged_requests(self) -> int:
        return sum(len(staging) for staging in self._staging)

    def has_work(self) -> bool:
        return (
            bool(self._req_in_flight)
            or any(self._resp_lanes.values())
            or any(self._staging)
        )
