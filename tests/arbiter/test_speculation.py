"""Tests for the hit_buffer and sent_reqs speculation structures (§4.3.1)."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.arbiter.speculation import HitBuffer, SentReqs


class TestHitBuffer:
    def test_contains_after_record(self):
        buf = HitBuffer(4)
        buf.record_hit(0x100)
        assert buf.contains(0x100)
        assert not buf.contains(0x200)

    def test_fifo_eviction_when_full(self):
        buf = HitBuffer(2)
        buf.record_hit(0x100)
        buf.record_hit(0x140)
        buf.record_hit(0x180)
        assert not buf.contains(0x100)
        assert buf.contains(0x140)
        assert buf.contains(0x180)
        assert len(buf) == 2

    def test_duplicate_entries_counted(self):
        buf = HitBuffer(3)
        buf.record_hit(0x100)
        buf.record_hit(0x100)
        buf.record_hit(0x140)
        buf.record_hit(0x180)     # evicts the oldest 0x100, the second copy remains
        assert buf.contains(0x100)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            HitBuffer(0)

    def test_insertions_counter(self):
        buf = HitBuffer(2)
        for _ in range(5):
            buf.record_hit(0x40)
        assert buf.insertions == 5


class TestSentReqs:
    def test_pending_lines_until_expiry(self):
        sent = SentReqs(capacity=4, lifetime=8)
        sent.record(0x100, speculated_hit=False, cycle=0)
        assert sent.pending_mshr_lines(cycle=4) == {0x100}
        assert sent.pending_mshr_lines(cycle=8) == set()

    def test_speculated_hits_are_masked_out(self):
        """Entries marked as speculated cache hits never count towards MSHR view."""

        sent = SentReqs(capacity=4, lifetime=8)
        sent.record(0x100, speculated_hit=True, cycle=0)
        sent.record(0x140, speculated_hit=False, cycle=0)
        assert sent.pending_mshr_lines(cycle=2) == {0x140}

    def test_capacity_drops_oldest(self):
        sent = SentReqs(capacity=2, lifetime=100)
        sent.record(0x100, False, 0)
        sent.record(0x140, False, 1)
        sent.record(0x180, False, 2)
        assert sent.pending_mshr_lines(3) == {0x140, 0x180}

    def test_expire_is_idempotent(self):
        sent = SentReqs(capacity=4, lifetime=5)
        sent.record(0x100, False, 0)
        sent.expire(10)
        sent.expire(10)
        assert len(sent) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SentReqs(0, 5)
        with pytest.raises(ValueError):
            SentReqs(4, 0)


@given(
    capacity=st.integers(1, 6),
    lifetime=st.integers(1, 10),
    ops=st.lists(
        st.tuples(
            st.integers(0, 3),              # cycles to advance
            st.booleans(),                  # record (else only expire)
            st.integers(0, 4),              # line index
            st.booleans(),                  # speculated hit
        ),
        max_size=60,
    ),
)
def test_property_incremental_view_equals_rebuilt_set(capacity, lifetime, ops):
    """The incremental line -> count view always equals the set (and the
    multiset) rebuilt from the unexpired, non-speculated-hit entries."""

    sent = SentReqs(capacity=capacity, lifetime=lifetime)
    model: list[tuple[int, int, bool]] = []   # (expiry, line, speculated_hit)
    cycle = 0
    for advance, record, line_index, speculated_hit in ops:
        cycle += advance
        line = 0x40 * line_index
        model = [e for e in model if e[0] > cycle]
        if record:
            sent.record(line, speculated_hit, cycle)
            if len(model) >= capacity:
                model.pop(0)
            model.append((cycle + lifetime, line, speculated_hit))
        else:
            sent.expire(cycle)
        rebuilt = {line for _, line, hit in model if not hit}
        assert set(sent.mshr_lines) == rebuilt
        assert sent.pending_mshr_lines(cycle) == rebuilt
        assert sent.mshr_lines == Counter(line for _, line, hit in model if not hit)
        assert len(sent) == len(model)
