"""Tests for the core <-> LLC interconnect."""

import heapq

from hypothesis import given, settings, strategies as st

from repro.common.address import AddressMap
from repro.common.types import AccessType, MemRequest, MemResponse
from repro.config.system import NoCConfig
from repro.noc.interconnect import Interconnect, STAGING_DEPTH


class Harness:
    def __init__(self, num_slices=2, latency=4, accept=True):
        self.noc = Interconnect(
            NoCConfig(request_latency=latency, response_latency=latency),
            AddressMap(line_size=64, num_slices=num_slices),
            num_cores=2,
            num_slices=num_slices,
        )
        self.accept = accept
        self.delivered: list[list[MemRequest]] = [[] for _ in range(num_slices)]
        self.responses: list[list[MemResponse]] = [[], []]

    def slice_sinks(self):
        def make(i):
            def sink(req, cycle):
                if not self.accept:
                    return False
                self.delivered[i].append(req)
                return True
            return sink
        return [make(i) for i in range(len(self.delivered))]

    def core_sinks(self):
        return [lambda r, c, i=i: self.responses[i].append(r) for i in range(2)]

    def run(self, cycles, start=0):
        for cycle in range(start, start + cycles):
            self.noc.tick(cycle, self.slice_sinks(), self.core_sinks())


def req(addr, core=0):
    return MemRequest(addr=addr, rw=AccessType.READ, core_id=core)


def resp(core=0):
    return MemResponse(
        req_id=1, core_id=core, tb_id=0, line_addr=0x40, rw=AccessType.READ, complete_cycle=0
    )


class TestRequestPath:
    def test_request_delivered_after_latency(self):
        h = Harness(latency=4)
        assert h.noc.send_request(req(0x0), cycle=0)
        h.run(3)
        assert not h.delivered[0]
        h.run(3, start=3)
        assert len(h.delivered[0]) == 1

    def test_routing_by_line_interleaving(self):
        h = Harness(num_slices=2)
        h.noc.send_request(req(0x0), 0)     # line 0 -> slice 0
        h.noc.send_request(req(0x40), 0)    # line 1 -> slice 1
        h.run(10)
        assert len(h.delivered[0]) == 1
        assert len(h.delivered[1]) == 1

    def test_backpressure_when_slice_rejects(self):
        h = Harness(latency=1, accept=False)
        limit = STAGING_DEPTH + 1
        sent = 0
        for i in range(limit + 8):
            if h.noc.send_request(req(0x0), 0):
                sent += 1
            h.run(1, start=i)
        assert sent <= limit
        assert h.noc.backpressure_rejects > 0

    def test_backpressure_releases_when_slice_accepts_again(self):
        h = Harness(latency=1, accept=False)
        for i in range(10):
            h.noc.send_request(req(0x0), i)
            h.run(1, start=i)
        assert not h.noc.can_accept_request(0x0)
        h.accept = True
        h.run(10, start=10)
        assert h.noc.can_accept_request(0x0)
        assert len(h.delivered[0]) > 0


class TestResponsePath:
    def test_response_delivered_to_right_core(self):
        h = Harness(latency=3)
        h.noc.send_response(resp(core=1), cycle=0)
        h.run(10)
        assert len(h.responses[1]) == 1
        assert not h.responses[0]

    def test_extra_delay_applied(self):
        h = Harness(latency=3)
        h.noc.send_response(resp(core=0), cycle=0, extra_delay=5)
        h.run(7)
        assert not h.responses[0]
        h.run(3, start=7)
        assert len(h.responses[0]) == 1

    def test_responses_never_backpressured(self):
        h = Harness()
        for i in range(100):
            h.noc.send_response(resp(core=0), cycle=0)
        h.run(10)
        assert len(h.responses[0]) == 100


class TestEngineSupport:
    def test_has_work_and_stats(self):
        h = Harness()
        assert not h.noc.has_work()
        h.noc.send_request(req(0x0), 0)
        assert h.noc.has_work()
        h.run(10)
        assert not h.noc.has_work()
        assert h.noc.requests_sent == 1


# -- FIFO lanes against a priority queue ----------------------------------------------------
class HeapInterconnect(Interconnect):
    """Reference: one priority queue per direction, ordered by (deliver, seq)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.req_heap = []
        self.resp_heap = []

    def send_request(self, req, cycle):
        slice_id = self.address_map.slice_of(req.addr)
        if self._slice_load[slice_id] >= self._slice_load_limit:
            self.backpressure_rejects += 1
            return False
        deliver = cycle + self.config.request_latency
        heapq.heappush(self.req_heap, (deliver, self._seq, slice_id, req))
        self._seq += 1
        self._slice_load[slice_id] += 1
        self.requests_sent += 1
        return True

    def send_response(self, resp, cycle, extra_delay=0):
        deliver = cycle + self.config.response_latency + extra_delay
        heapq.heappush(self.resp_heap, (deliver, self._seq, resp))
        self._seq += 1
        self.responses_sent += 1

    def tick(self, cycle, slice_sinks, core_sinks):
        while self.req_heap and self.req_heap[0][0] <= cycle:
            _, _, slice_id, req = heapq.heappop(self.req_heap)
            self._staging[slice_id].append(req)
        for slice_id, staging in enumerate(self._staging):
            accepted = 0
            while staging and accepted < self.config.slice_port_width:
                if not slice_sinks[slice_id](staging[0], cycle):
                    break
                staging.popleft()
                accepted += 1
            self._slice_load[slice_id] -= accepted
        while self.resp_heap and self.resp_heap[0][0] <= cycle:
            _, _, resp = heapq.heappop(self.resp_heap)
            core_sinks[resp.core_id](resp, cycle)

    def has_work(self):
        return bool(self.req_heap or self.resp_heap) or any(self._staging)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("req"), st.integers(0, 7)),                  # line index
        st.tuples(st.just("resp"), st.integers(0, 1), st.sampled_from([0, 0, 1, 3, 7])),
        st.tuples(st.just("tick"), st.integers(1, 4)),                 # then skip ahead
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(
    ops=_OPS,
    request_latency=st.integers(0, 4),
    response_latency=st.integers(0, 4),
    port_width=st.integers(1, 2),
    reject_every=st.integers(2, 5),
)
def test_property_lanes_deliver_like_a_priority_queue(
    ops, request_latency, response_latency, port_width, reject_every
):
    """Same deliveries, in the same order, on the same ticks as a heap NoC --
    with zero latencies, mixed extra delays and ticks that skip cycles."""

    config = NoCConfig(
        request_latency=request_latency,
        response_latency=response_latency,
        slice_port_width=port_width,
    )
    logs = []
    for cls in (Interconnect, HeapInterconnect):
        noc = cls(config, AddressMap(line_size=64, num_slices=2), num_cores=2, num_slices=2)
        log = []

        def slice_sink(slice_id, log=log):
            def sink(req, cycle):
                if (cycle + slice_id) % reject_every == 0:
                    return False  # this slice's queue is full this cycle
                log.append((cycle, "slice", slice_id, req.req_id))
                return True
            return sink

        slice_sinks = [slice_sink(0), slice_sink(1)]
        core_sinks = [
            lambda r, c, i=i, log=log: log.append((c, "core", i, r.req_id)) for i in range(2)
        ]
        cycle = 0
        for n, op in enumerate(ops):
            if op[0] == "req":
                accepted = noc.send_request(
                    MemRequest(addr=op[1] * 64, rw=AccessType.READ, core_id=0, req_id=n),
                    cycle,
                )
                log.append((cycle, "sent", accepted))
            elif op[0] == "resp":
                response = MemResponse(
                    req_id=n, core_id=op[1], tb_id=0, line_addr=0,
                    rw=AccessType.READ, complete_cycle=cycle,
                )
                noc.send_response(response, cycle, extra_delay=op[2])
            else:
                noc.tick(cycle, slice_sinks, core_sinks)
                cycle += op[1]
        for _ in range(64):  # drain: zero-reject cycles always come around
            noc.tick(cycle, slice_sinks, core_sinks)
            cycle += 1
        assert not noc.has_work()
        logs.append(log)
    assert logs[0] == logs[1]
