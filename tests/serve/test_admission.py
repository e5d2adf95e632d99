"""Admission control: capacity caps, predicted overload, Retry-After.

The service-level tests use the streaming endpoint to hold capacity
deterministically: an admitted stream keeps its ticket until the
response body is consumed, so "server busy" needs no thread races.
"""

from __future__ import annotations

import json

import pytest
from serve_utils import ATTRIBUTE, post, run

from repro.core.errors import ConfigError
from repro.serve.admission import MAX_RETRY_AFTER, AdmissionController
from repro.serve.app import ServiceConfig


class TestControllerUnit:
    def test_admits_until_capacity(self):
        controller = AdmissionController(max_inflight=2)
        first = controller.admit(10.0)
        second = controller.admit(10.0)
        assert first.admitted and second.admitted
        third = controller.admit(10.0)
        assert not third.admitted
        assert third.reason == "capacity"
        assert third.retry_after >= 1

    def test_finish_releases_capacity(self):
        controller = AdmissionController(max_inflight=1)
        decision = controller.admit(5.0)
        assert not controller.admit(5.0).admitted
        decision.ticket.finish(0.01)
        assert controller.admit(5.0).admitted
        assert controller.completed_total == 1

    def test_finish_is_idempotent(self):
        controller = AdmissionController(max_inflight=1)
        decision = controller.admit(5.0)
        decision.ticket.finish(0.01)
        decision.ticket.finish(0.01)
        assert controller.inflight == 0
        assert controller.completed_total == 1

    def test_cost_budget_rejects_busy_server(self):
        controller = AdmissionController(max_inflight=8, cost_budget=100.0)
        assert controller.admit(80.0).admitted
        decision = controller.admit(30.0)
        assert not decision.admitted
        assert decision.reason == "predicted-overload"

    def test_expensive_query_admitted_when_idle(self):
        # The budget sheds load; it never starves a query class.
        controller = AdmissionController(max_inflight=8, cost_budget=100.0)
        assert controller.admit(5_000.0).admitted

    def test_retry_after_is_bounded(self):
        controller = AdmissionController(max_inflight=1, cost_budget=0.0)
        ticket = controller.admit(1e9).ticket
        assert 1 <= controller.retry_after() <= MAX_RETRY_AFTER
        ticket.finish(0.5)

    def test_retry_after_tracks_observed_service_rate(self):
        controller = AdmissionController(max_inflight=4)
        # Three finished requests at ~2s each teach the EWMA.
        for __ in range(3):
            controller.admit(100.0).ticket.finish(2.0)
        controller.admit(100.0)
        controller.admit(100.0)
        # Two in flight at ~2s each -> drain estimate of several seconds.
        assert controller.retry_after() >= 2

    def test_snapshot_counters(self):
        controller = AdmissionController(max_inflight=1)
        controller.admit(3.0).ticket.finish(0.01)
        held = controller.admit(3.0).ticket
        controller.admit(3.0)
        snapshot = controller.snapshot()
        assert snapshot["admitted"] == 2
        assert snapshot["completed"] == 1
        assert snapshot["inflight"] == 1
        assert snapshot["rejected_capacity"] == 1
        held.finish(0.01)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ConfigError):
            AdmissionController(cost_budget=-1.0)


class TestServiceAdmission:
    def test_reject_at_capacity_with_retry_after(self, service_factory):
        service = service_factory(config=ServiceConfig(max_inflight=1))

        async def scenario():
            stream_response = await service.handle(post(
                "/query/topn/stream",
                {"attribute": ATTRIBUTE, "search": "adapte", "n": 3},
            ))
            assert stream_response.status == 200  # holds the only slot
            rejected = await service.handle(post(
                "/query/similar",
                {"search": "adaptor", "attribute": ATTRIBUTE, "d": 1},
            ))
            assert rejected.status == 429
            assert rejected.payload["reason"] == "capacity"
            retry_after = int(rejected.headers["Retry-After"])
            assert retry_after >= 1
            assert rejected.payload["retry_after"] == retry_after
            # Drain the stream: the slot frees, a retry is admitted —
            # waiting the advertised interval is always enough because
            # the slot-holder is already executing.
            async for __ in stream_response.stream:
                pass
            retried = await service.handle(post(
                "/query/similar",
                {"search": "adaptor", "attribute": ATTRIBUTE, "d": 1},
            ))
            assert retried.status == 200
            return rejected

        run(scenario())
        assert service.admission.rejected_capacity == 1
        assert service.admission.inflight == 0

    def test_predicted_overload_rejection(self, service_factory):
        # A budget below any similarity query's predicted cost: the
        # first request (idle server) is always admitted, the second is
        # shed as predicted overload.
        service = service_factory(
            config=ServiceConfig(max_inflight=8, cost_budget=0.5)
        )

        async def scenario():
            stream_response = await service.handle(post(
                "/query/topn/stream",
                {"attribute": ATTRIBUTE, "search": "adapte", "n": 3},
            ))
            assert stream_response.status == 200
            rejected = await service.handle(post(
                "/query/similar",
                {"search": "adaptor", "attribute": ATTRIBUTE, "d": 1},
            ))
            assert rejected.status == 429
            assert rejected.payload["reason"] == "predicted-overload"
            async for __ in stream_response.stream:
                pass

        run(scenario())
        assert service.admission.rejected_overload == 1

    def test_rejected_requests_do_not_touch_the_engine(self, service_factory):
        service = service_factory(config=ServiceConfig(max_inflight=1))

        async def scenario():
            stream_response = await service.handle(post(
                "/query/topn/stream",
                {"attribute": ATTRIBUTE, "search": "adapte", "n": 3},
            ))
            queries_before = service.engine.stats.queries
            rejected = await service.handle(post(
                "/query/exact", {"attribute": ATTRIBUTE, "value": "overlay"},
            ))
            assert rejected.status == 429
            assert service.engine.stats.queries == queries_before
            async for __ in stream_response.stream:
                pass

        run(scenario())

    def test_stream_summary_counts_against_capacity(self, service_factory):
        service = service_factory(config=ServiceConfig(max_inflight=2))

        async def scenario():
            first = await service.handle(post(
                "/query/topn/stream",
                {"attribute": ATTRIBUTE, "search": "adapte", "n": 2},
            ))
            second = await service.handle(post(
                "/query/topn/stream",
                {"attribute": ATTRIBUTE, "search": "overla", "n": 2},
            ))
            assert service.admission.inflight == 2
            third = await service.handle(post(
                "/query/exact", {"attribute": ATTRIBUTE, "value": "overlay"},
            ))
            assert third.status == 429
            for response in (first, second):
                lines = [json.loads(c) async for c in response.stream]
                assert lines[-1]["done"] is True
            return None

        run(scenario())
        assert service.admission.inflight == 0


UNARY_REQUESTS = {
    "exact": ("/query/exact", {"attribute": ATTRIBUTE, "value": "overlay"}),
    "similar": (
        "/query/similar",
        {"search": "adaptor", "attribute": ATTRIBUTE, "d": 1},
    ),
    "topn": ("/query/topn", {"attribute": ATTRIBUTE, "search": "adapte", "n": 2}),
    "vql": (
        "/query/vql",
        {"text": f"SELECT ?w WHERE {{ (?o,{ATTRIBUTE},?w) }} LIMIT 3"},
    ),
}


class TestUnaryHandlerSkeleton:
    """Every unary query endpoint shares one admit/run/finish skeleton."""

    @pytest.mark.parametrize("kind", sorted(UNARY_REQUESTS))
    def test_slot_released_after_answer(self, service_factory, kind):
        service = service_factory(config=ServiceConfig(max_inflight=1))
        path, payload = UNARY_REQUESTS[kind]
        response = run(service.handle(post(path, payload)))
        assert response.status == 200
        assert response.payload["cost"]["messages"] > 0
        assert service.admission.admitted_total == 1
        assert service.admission.completed_total == 1
        assert service.admission.inflight == 0

    @pytest.mark.parametrize("kind", sorted(UNARY_REQUESTS))
    def test_rejected_at_capacity_without_engine_work(
        self, service_factory, kind
    ):
        service = service_factory(config=ServiceConfig(max_inflight=1))
        path, payload = UNARY_REQUESTS[kind]

        async def scenario():
            stream_response = await service.handle(post(
                "/query/topn/stream",
                {"attribute": ATTRIBUTE, "search": "adapte", "n": 3},
            ))
            queries_before = service.engine.stats.queries
            rejected = await service.handle(post(path, payload))
            assert rejected.status == 429
            assert rejected.payload["reason"] == "capacity"
            assert service.engine.stats.queries == queries_before
            async for __ in stream_response.stream:
                pass

        run(scenario())
        assert service.admission.rejected_capacity == 1
        assert service.admission.inflight == 0

    def test_slot_released_when_operation_raises(self, service_factory):
        service = service_factory(config=ServiceConfig(max_inflight=1))
        response = run(service.handle(post(
            "/query/vql", {"text": "SELECT ?w WHERE {"},
        )))
        assert response.status == 422
        assert service.admission.completed_total == 1
        assert service.admission.inflight == 0
        retried = run(service.handle(post(*UNARY_REQUESTS["exact"])))
        assert retried.status == 200
