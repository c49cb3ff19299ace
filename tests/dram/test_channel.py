"""Tests for repro.dram.channel — queues, bus serialisation, service."""

import pytest

from repro.config import SimConfig
from repro.dram.channel import Channel
from repro.dram.request import MemoryRequest


def make_request(channel=0, bank=0, row=1, thread=0, arrival=0):
    return MemoryRequest(
        thread_id=thread, channel_id=channel, bank_id=bank, row=row,
        arrival=arrival,
    )


@pytest.fixture
def channel():
    return Channel(0, SimConfig())


class TestEnqueue:
    def test_enqueue_routes_to_bank_queue(self, channel):
        request = make_request(bank=2)
        channel.enqueue(request)
        assert channel.queues[2] == [request]
        assert channel.pending_requests() == 1

    def test_wrong_channel_rejected(self, channel):
        with pytest.raises(ValueError):
            channel.enqueue(make_request(channel=1))


class TestService:
    def test_start_service_removes_from_queue(self, channel):
        request = make_request()
        channel.enqueue(request)
        channel.start_service(request, now=0)
        assert channel.pending_requests() == 0
        assert channel.serviced_requests == 1

    def test_service_stamps_timing(self, channel):
        request = make_request()
        channel.enqueue(request)
        access, completion = channel.start_service(request, now=0)
        assert request.start_service == 0
        assert request.completion == completion
        assert completion == access.data_end + channel.config.timings.fixed_overhead

    def test_bus_serialises_across_banks(self, channel):
        r0 = make_request(bank=0, row=1)
        r1 = make_request(bank=1, row=1)
        channel.enqueue(r0)
        channel.enqueue(r1)
        a0, _ = channel.start_service(r0, now=0)
        a1, _ = channel.start_service(r1, now=0)
        # second burst cannot overlap the first on the shared data bus
        assert a1.data_start >= a0.data_end


class TestRequest:
    def test_latency_none_until_complete(self):
        request = make_request()
        assert request.latency is None
        request.completion = 500
        assert request.latency == 500

    def test_request_ids_unique(self):
        a, b = make_request(), make_request()
        assert a.request_id != b.request_id

    def test_repr_compact(self):
        text = repr(make_request(bank=2, row=9))
        assert "b2" in text and "r9" in text
