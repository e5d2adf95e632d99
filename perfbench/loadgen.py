"""The benchmark's own HTTP load generator, run as a separate process.

``python3 -m perfbench.loadgen`` reads a plan (JSON on standard input),
drives the service over ``connections`` keep-alive connections (the
program's own :class:`~repro.serve.client.HttpClient`) and writes what it
saw (JSON on standard output).  Running apart from the server keeps the
generator off the server's interpreter lock.  It needs ``src`` and the
checkout root on ``PYTHONPATH``.

Open loop (phase A): every request has a scheduled send time, fixed from
the seed before timing starts.  The generator sleeps until a request is
due and hands it to an idle connection; latency runs from the
*scheduled* time to the last byte of the reply, so a stall that delays
later sends is charged to them (no coordinated omission).  It records how
late it ran against the schedule and how long a due request waited for a
free connection, so a harness bottleneck shows as such.

Closed loop (the untimed warm-up and phase B): each connection sends its
next request as soon as the previous reply has arrived.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

from repro.serve.client import ClientError, HttpClient, HttpReply

#: Seconds one request may take before it counts as a drain timeout.
REQUEST_TIMEOUT = 30.0


def reply_problem(path: str, reply: HttpReply, body: dict) -> str:
    """Why a reply (``body`` decoded) fails the per-response checks ('' when
    it passes)."""
    if reply.status != 200:
        return f"status {reply.status}"
    if path == "/query/topn/stream":
        if not reply.lines or not reply.lines[-1].get("done"):
            return "stream without its done line"
        if "cost" not in reply.lines[-1]:
            return "stream summary without cost"
        return ""
    if "cost" not in body:
        return "reply without cost"
    return ""


def answer_of(path: str, body: dict, lines: list[dict]) -> list:
    """A reply's answer as a JSON-able list the checks compare."""
    if path == "/query/topn/stream":
        return [
            [line["match"]["oid"], line["match"]["distance"]]
            for line in lines
            if "match" in line
        ]
    if path == "/query/topn":
        return [[m["oid"], m["distance"]] for m in body["matches"]]
    if path == "/query/vql":
        return sorted(sorted(row.values()) for row in body["rows"])
    return sorted([m["oid"], m["distance"]] for m in body["matches"])


def _record(index: int, path: str, reply: HttpReply | None, error: str, keep: bool) -> dict:
    """What the parent needs from one reply."""
    body = {}
    if not error and reply.status == 200 and path != "/query/topn/stream":
        body = reply.json()
    problem = error or reply_problem(path, reply, body)
    record = {"index": index, "problem": problem}
    if not problem:
        cost = reply.lines[-1]["cost"] if reply.lines else body["cost"]
        record["messages"] = cost["messages"]
        record["payload_bytes"] = cost["payload_bytes"]
        if keep:
            record["answer"] = answer_of(path, body, reply.lines)
    return record


async def _send(client: HttpClient, request) -> tuple[HttpReply | None, str]:
    try:
        reply = await asyncio.wait_for(client.request(*request), REQUEST_TIMEOUT)
        return reply, ""
    except (asyncio.TimeoutError, OSError, ClientError, ValueError) as exc:
        # The client reconnects on its next request.
        await client.close()
        return None, f"{type(exc).__name__}: {exc}"


async def open_loop(connections, requests, schedule, keep: set) -> list[dict]:
    """Send ``requests[i]`` at ``schedule[i]`` seconds from the start."""
    idle: asyncio.Queue = asyncio.Queue()
    for connection in connections:
        idle.put_nowait(connection)
    records: list[dict] = []
    clock = time.perf_counter
    started = clock()

    async def fire(index: int, due: float) -> None:
        sent = clock()
        connection = await idle.get()
        taken = clock()
        try:
            reply, error = await _send(connection, requests[index])
        finally:
            idle.put_nowait(connection)
        finished = clock()
        record = _record(index, requests[index][1], reply, error, index in keep)
        record.update(latency=finished - due, late=sent - due, conn_wait=taken - sent)
        records.append(record)

    tasks = []
    for index, offset in enumerate(schedule):
        due = started + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(fire(index, due)))
    await asyncio.gather(*tasks)
    records.sort(key=lambda record: record["index"])
    return records


async def closed_loop(connections, requests, seconds: float | None):
    """Each connection sends back to back, cycling through ``requests``.

    Runs for ``seconds``, or once through ``requests`` when it is None.
    Returns the records and the elapsed time.
    """
    clock = time.perf_counter
    started = clock()
    records: list[dict] = []
    sent = 0

    def more() -> bool:
        if seconds is None:
            return sent < len(requests)
        return clock() - started < seconds

    async def worker(connection: HttpClient) -> None:
        nonlocal sent
        while more():
            index = sent % len(requests)
            sent += 1
            begun = clock()
            reply, error = await _send(connection, requests[index])
            record = _record(index, requests[index][1], reply, error, False)
            record["latency"] = clock() - begun
            records.append(record)

    await asyncio.gather(*(worker(c) for c in connections))
    return records, clock() - started


async def drive(plan: dict) -> dict:
    connections = [HttpClient("127.0.0.1", plan["port"]) for __ in range(plan["connections"])]
    try:
        warmup, __ = await closed_loop(connections, plan["requests_warmup"], None)
        phase_a = await open_loop(
            connections, plan["requests_a"], plan["schedule"], set(plan["sample"])
        )
        phase_b, elapsed_b = await closed_loop(
            connections, plan["requests_b"], plan["seconds_b"]
        )
    finally:
        for connection in connections:
            await connection.close()
    return {
        "warmup": warmup,
        "phase_a": phase_a,
        "phase_b": phase_b,
        "elapsed_b": elapsed_b,
    }


def main() -> int:
    plan = json.load(sys.stdin)
    json.dump(asyncio.run(drive(plan)), sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
