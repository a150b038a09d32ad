"""Tests for the socket server: protocol handling and the full smoke.

Everything runs in-process on a free port; the smoke helper is the
same scenario the CI ``service-smoke`` job drives at larger scale.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service.server import QueryServer
from repro.service.smoke import run_smoke, tenant_specs
from repro.service.spec import QuerySpec


def test_smoke_concurrent_clients_match_solo_and_oracle():
    failures = asyncio.run(run_smoke(clients=4, n=120, memory=None))
    assert failures == []


def test_smoke_specs_mix_algorithms_and_arrivals():
    specs = tenant_specs(6, 100)
    assert len({s.algorithm for s in specs}) == 3
    assert len({s.seed for s in specs}) == 6
    assert {s.arrival for s in specs} == {"constant", "poisson"}


async def _request_response(host, port, requests: list[dict]) -> list[dict]:
    """Send request lines, return every received event until EOF."""
    reader, writer = await asyncio.open_connection(host, port)
    for request in requests:
        writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    writer.write_eof()
    events = []
    while True:
        line = await reader.readline()
        if not line:
            break
        events.append(json.loads(line))
    writer.close()
    return events


async def _with_server(scenario):
    server = QueryServer(host="127.0.0.1", port=0)
    await server.start()
    serve_task = asyncio.create_task(server.serve())
    host, port = server.address
    try:
        return await scenario(host, port)
    finally:
        if not server._shutdown.is_set():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps({"op": "shutdown"}).encode() + b"\n")
            await writer.drain()
            await reader.readline()
            writer.close()
        await serve_task


def test_protocol_ping_bad_json_and_unknown_op():
    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        assert json.loads(await reader.readline())["event"] == "ready"
        writer.write(b'{"op": "ping"}\n')
        writer.write(b"this is not json\n")
        writer.write(b'{"op": "warp"}\n')
        await writer.drain()
        events = [json.loads(await reader.readline()) for _ in range(3)]
        writer.close()
        return events

    events = asyncio.run(_with_server(scenario))
    assert events[0]["event"] == "pong"
    assert events[1]["event"] == "error" and "bad JSON" in events[1]["error"]
    assert events[2]["event"] == "error" and "warp" in events[2]["error"]


def test_protocol_rejects_bad_spec_without_dying():
    async def scenario(host, port):
        return await _request_response(
            host,
            port,
            [
                {"op": "query", "spec": {"algorithm": "mergesort"}},
                {"op": "query", "spec": {"bogus_field": 1}},
            ],
        )

    events = asyncio.run(_with_server(scenario))
    errors = [e for e in events if e["event"] == "error"]
    assert len(errors) == 2
    assert "unknown algorithm" in errors[0]["error"]
    assert "unknown query spec fields" in errors[1]["error"]


def test_mistyped_spec_gets_an_error_and_the_connection_keeps_serving():
    spec = QuerySpec(query_id="ok", algorithm="hmj", n=60, seed=13)

    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        await reader.readline()  # ready
        for body in ({"memory": "x"}, spec.to_dict()):
            writer.write(json.dumps({"op": "query", "spec": body}).encode() + b"\n")
        await writer.drain()
        events = []
        while not events or events[-1]["event"] not in ("done", "failed"):
            events.append(json.loads(await reader.readline()))
        writer.close()
        return events

    events = asyncio.run(_with_server(scenario))
    assert events[0]["event"] == "error" and "'memory'" in events[0]["error"]
    assert events[-1]["event"] == "done"
    assert events[-1]["id"] == "ok" and events[-1]["completed"] is True


def test_query_lifecycle_streams_results_then_done():
    spec = QuerySpec(query_id="t", algorithm="hmj", n=100, seed=13)

    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        await reader.readline()  # ready
        writer.write(
            json.dumps({"op": "query", "spec": spec.to_dict()}).encode() + b"\n"
        )
        await writer.drain()
        events = []
        while True:
            event = json.loads(await reader.readline())
            events.append(event)
            if event["event"] in ("done", "cancelled", "failed"):
                break
        writer.close()
        return events

    events = asyncio.run(_with_server(scenario))
    kinds = [e["event"] for e in events]
    # "admitted" fires synchronously inside submit(), before the server
    # registers this client's writer — so the stream starts at accepted.
    assert kinds[0] == "accepted"
    assert kinds[-1] == "done"
    done = events[-1]
    assert done["completed"] is True
    assert kinds.count("result") == done["count"] > 0
    # The solo reference: identical triple through the server.
    solo = spec.build()
    solo.run()
    assert (done["count"], done["clock"], done["io"]) == solo.triple()


def test_cancel_over_the_wire():
    # A never-arriving workload would hang; instead cancel a pending
    # query race-free by submitting and cancelling on one connection.
    spec = QuerySpec(query_id="victim", n=200, seed=13)

    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        await reader.readline()  # ready
        writer.write(
            json.dumps({"op": "query", "spec": spec.to_dict()}).encode() + b"\n"
        )
        writer.write(json.dumps({"op": "cancel", "id": "victim"}).encode() + b"\n")
        await writer.drain()
        events = []
        while True:
            event = json.loads(await reader.readline())
            events.append(event)
            if event["event"] in ("done", "cancelled", "cancel-ack"):
                if any(e["event"] == "cancel-ack" for e in events) and any(
                    e["event"] in ("done", "cancelled") for e in events
                ):
                    break
        writer.close()
        return events

    events = asyncio.run(_with_server(scenario))
    ack = next(e for e in events if e["event"] == "cancel-ack")
    terminal = next(e for e in events if e["event"] in ("done", "cancelled"))
    # The cancel lands either before the query finished (cancelled) or
    # after (too late, ok=False and the query ran to done) — both are
    # protocol-clean; what must never happen is a hang or a failure.
    if ack["ok"]:
        assert terminal["event"] == "cancelled"
        assert terminal["completed"] is False
    else:
        assert terminal["event"] == "done"


def test_queries_after_shutdown_are_refused():
    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        await reader.readline()  # ready
        writer.write(json.dumps({"op": "shutdown"}).encode() + b"\n")
        await writer.drain()
        assert json.loads(await reader.readline())["event"] == "bye"
        writer.close()
        # A second client racing the close gets refused, not served.
        try:
            reader2, writer2 = await asyncio.open_connection(host, port)
        except ConnectionRefusedError:
            return None
        await reader2.readline()
        writer2.write(
            json.dumps({"op": "query", "spec": {}}).encode() + b"\n"
        )
        await writer2.drain()
        event = json.loads(await reader2.readline())
        writer2.close()
        return event

    event = asyncio.run(_with_server(scenario))
    assert event is None or (
        event["event"] == "error" and "shutting down" in event["error"]
    )
