"""The load harness's HTTP transport never queues requests client-side.

Excess load must reach the server, where admission can see it and
reject it; a request waiting for a pooled connection would instead be
invisible to the server and counted as latency by the harness
(coordinated omission).
"""

from __future__ import annotations

import asyncio

from serve_utils import ATTRIBUTE

from repro.bench.serve import HttpTransport, PlannedRequest
from repro.serve.app import ServiceConfig
from repro.serve.http import ServiceServer

#: More concurrent requests than any fixed connection pool of 16 holds.
CONCURRENT = 24

EXACT = PlannedRequest(
    "exact",
    "POST",
    "/query/exact",
    {"attribute": ATTRIBUTE, "value": "overlay"},
    "exact",
)


async def serve(service, scenario):
    """Run ``scenario(transport)`` against a live server on a free port."""
    server = ServiceServer(service, "127.0.0.1", 0)
    await server.start()
    transport = HttpTransport("127.0.0.1", server.port)
    try:
        return await scenario(transport)
    finally:
        await transport.close()
        await server.stop()


class TestHttpTransport:
    def test_concurrent_fires_each_reach_the_server(self, service_factory):
        """K concurrent fires open K connections and all reach the server.

        The server holds every request until all K have arrived, so a
        transport that parked any of them behind a busy connection would
        never release the gate.
        """
        service = service_factory(
            config=ServiceConfig(max_inflight=2 * CONCURRENT)
        )
        handle = service.handle
        arrived = 0
        all_arrived = asyncio.Event()

        async def gated_handle(request):
            nonlocal arrived
            arrived += 1
            if arrived == CONCURRENT:
                all_arrived.set()
            await all_arrived.wait()
            return await handle(request)

        service.handle = gated_handle

        async def scenario(transport):
            outcomes = await asyncio.wait_for(
                asyncio.gather(
                    *(transport.fire(EXACT) for __ in range(CONCURRENT))
                ),
                timeout=20,
            )
            return outcomes, len(transport.clients)

        outcomes, connections = asyncio.run(serve(service, scenario))
        assert arrived == CONCURRENT
        assert connections == CONCURRENT
        assert [outcome.status for outcome in outcomes] == [200] * CONCURRENT

    def test_sequential_fires_reuse_one_connection(self, service_factory):
        service = service_factory()

        async def scenario(transport):
            statuses = [(await transport.fire(EXACT)).status for __ in range(3)]
            stats = await transport.stats()
            return statuses, stats, len(transport.clients)

        statuses, stats, connections = asyncio.run(serve(service, scenario))
        assert statuses == [200, 200, 200]
        assert stats["served_by_endpoint"]["/query/exact"] == 3
        assert connections == 1
