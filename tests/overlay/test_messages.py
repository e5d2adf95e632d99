"""Unit tests for message accounting."""

import pytest

from repro.overlay.messages import CostReport, MessageTracer, MessageType


class TestMessageTracer:
    def test_counts_messages_and_bytes(self):
        tracer = MessageTracer()
        tracer.send(MessageType.ROUTE, 0, 1)
        tracer.send(MessageType.RESULT, 1, 0, payload_bytes=100)
        assert tracer.message_count == 2
        assert tracer.payload_bytes == 100

    def test_counts_by_type_and_phase(self):
        tracer = MessageTracer()
        tracer.send(MessageType.ROUTE, 0, 1, phase="gram_lookup")
        tracer.send(MessageType.ROUTE, 1, 2, phase="gram_lookup")
        tracer.send(MessageType.RESULT, 2, 0, 50, phase="oid_lookup")
        assert tracer.counts_by_type["route"] == 2
        assert tracer.counts_by_phase["gram_lookup"] == 2
        assert tracer.counts_by_phase["oid_lookup"] == 1

    def test_reset(self):
        tracer = MessageTracer()
        tracer.send(MessageType.ROUTE, 0, 1, 5)
        tracer.reset()
        assert tracer.message_count == 0
        assert tracer.payload_bytes == 0
        assert not tracer.counts_by_type


class TestSendBulk:
    def test_matches_individual_sends(self):
        bulk = MessageTracer()
        bulk.send_bulk(MessageType.BROADCAST, 3, 90, phase="broadcast")
        single = MessageTracer()
        for __ in range(3):
            single.send(MessageType.BROADCAST, 0, 1, 30, phase="broadcast")
        assert bulk.snapshot() == single.snapshot()

    def test_zero_count_charges_nothing(self):
        tracer = MessageTracer()
        tracer.send_bulk(MessageType.FORWARD, 0, phase="shower")
        assert tracer.snapshot() == MessageTracer().snapshot()
        assert "shower" not in tracer.counts_by_phase

    def test_negative_count_rejected(self):
        tracer = MessageTracer()
        with pytest.raises(ValueError):
            tracer.send_bulk(MessageType.FORWARD, -1)
        assert tracer.message_count == 0


class TestSnapshots:
    def test_delta(self):
        tracer = MessageTracer()
        tracer.send(MessageType.ROUTE, 0, 1)
        before = tracer.snapshot()
        tracer.send(MessageType.RESULT, 1, 0, 30)
        tracer.send(MessageType.RESULT, 1, 0, 20)
        delta = before.delta(tracer.snapshot())
        assert delta.messages == 2
        assert delta.payload_bytes == 50
        assert delta.by_type["result"] == 2
        assert delta.by_type.get("route", 0) == 0

    def test_cost_report_from_delta(self):
        tracer = MessageTracer()
        before = tracer.snapshot()
        tracer.send(MessageType.DELEGATE, 0, 1, 1_000_000, phase="x")
        report = CostReport.from_delta(before, tracer.snapshot())
        assert report.messages == 1
        assert report.payload_megabytes == 1.0
        assert report.by_phase == {"x": 1}

    def test_cost_report_drops_zero_entries(self):
        tracer = MessageTracer()
        tracer.send(MessageType.ROUTE, 0, 1)
        before = tracer.snapshot()
        tracer.send(MessageType.RESULT, 1, 0)
        report = CostReport.from_delta(before, tracer.snapshot())
        assert "route" not in report.by_type
