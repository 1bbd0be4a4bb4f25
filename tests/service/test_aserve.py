"""Asyncio front-end: coalescing, window edges, generations, protocols.

Covers the micro-batcher edge cases the serving layer must survive:
empty-window flushes (every waiter cancelled), windows split at
``max_batch`` with spans kept intact, a hot rebuild landing while a batch
is in flight (the whole window still answers from one generation), which
thread answers a window (the loop, or the worker while a rebuild runs),
and cancellation of a parked caller.  The TCP and HTTP handlers are exercised
over real sockets on an ephemeral port.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.obs import Tracer
from repro.service import MembershipService
from repro.service.aserve import AdaptiveMicroBatcher, AsyncMembershipServer
from repro.service.shards import ShardedFilterStore

POSITIVES = [f"evil-{i}.example" for i in range(300)]
NEGATIVES = [f"fine-{i}.example" for i in range(300)]


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture()
def service():
    svc = MembershipService(backend="bloom", num_shards=2, bits_per_key=12.0)
    svc.load(POSITIVES, NEGATIVES)
    return svc


# --------------------------------------------------------------------- #
# Coalescing and window policy
# --------------------------------------------------------------------- #
def test_concurrent_scalar_queries_coalesce(service):
    async def scenario():
        async with AdaptiveMicroBatcher(service, max_batch=128, max_wait_ms=5.0) as front:
            probe = POSITIVES[:40] + NEGATIVES[:40]
            answers = await asyncio.gather(*[front.query(key) for key in probe])
            return answers, front.batching_stats()

    answers, stats = run(scenario())
    assert answers == [True] * 40 + [False] * 40
    assert stats.coalesced_keys == 80
    # 80 concurrent callers must not mean 80 engine dispatches.
    assert stats.flushes < 40
    assert stats.batch_size is not None and stats.batch_size.p99 > 1
    assert stats.queue_depth is not None


def test_window_splits_at_max_batch_and_spans_stay_intact(service):
    async def scenario():
        async with AdaptiveMicroBatcher(service, max_batch=8, max_wait_ms=20.0) as front:
            scalar = [front.query(key) for key in POSITIVES[:20]]
            span = front.query_many_with_generation(POSITIVES[20:25])
            results = await asyncio.gather(*scalar, span)
            return results, front.batching_stats()

    results, stats = run(scenario())
    *scalars, (span_verdicts, span_generation) = results
    assert scalars == [True] * 20
    assert span_verdicts == [True] * 5 and span_generation == 1
    # 25 keys through windows of <= 8: at least three full windows, and the
    # batch-size distribution never exceeds max_batch.
    assert stats.full_flushes >= 1
    assert stats.flushes >= 4
    assert stats.batch_size.p99 <= 8


def test_oversized_request_bypasses_the_queue(service):
    async def scenario():
        async with AdaptiveMicroBatcher(service, max_batch=8, max_wait_ms=1.0) as front:
            verdicts, generation = await front.query_many_with_generation(POSITIVES[:30])
            return verdicts, generation, front.batching_stats()

    verdicts, generation, stats = run(scenario())
    assert verdicts == [True] * 30 and generation == 1
    assert stats.bypassed_batches == 1
    assert stats.flushes == 0  # never touched the coalescing queue


def test_empty_request_and_closed_batcher_raise(service):
    async def scenario():
        front = AdaptiveMicroBatcher(service)
        with pytest.raises(ServiceError, match="0 keys"):
            await front.query_many([])
        await front.aclose()
        with pytest.raises(ServiceError, match="closed"):
            await front.query("anything")

    run(scenario())
    with pytest.raises(ConfigurationError):
        AdaptiveMicroBatcher(service, max_batch=0)
    with pytest.raises(ConfigurationError):
        AdaptiveMicroBatcher(service, max_wait_ms=1.0, min_wait_ms=2.0)


def test_adaptive_deadline_tracks_arrival_rate(service):
    async def scenario():
        async with AdaptiveMicroBatcher(
            service, max_batch=64, max_wait_ms=4.0
        ) as front:
            before = front.current_wait_seconds
            for _ in range(6):
                await asyncio.gather(*[front.query(key) for key in POSITIVES[:50]])
            return before, front.current_wait_seconds

    before, after = run(scenario())
    # No traffic yet: the deadline sits at the cap.  Dense bursts pull the
    # EWMA arrival rate up, which shrinks the projected fill time.
    assert before == pytest.approx(4.0e-3)
    assert 0.0 <= after < before


# --------------------------------------------------------------------- #
# Cancellation and empty windows
# --------------------------------------------------------------------- #
def test_cancelled_caller_yields_empty_window_flush(service):
    async def scenario():
        # A 30 ms window floor parks the flusher long enough to cancel the
        # only waiter: the flush then sees an all-cancelled window and must
        # skip the engine without disturbing later traffic.
        async with AdaptiveMicroBatcher(
            service, max_batch=16, max_wait_ms=50.0, min_wait_ms=30.0
        ) as front:
            doomed = asyncio.ensure_future(front.query(POSITIVES[0]))
            await asyncio.sleep(0.005)  # let it enqueue and the window open
            doomed.cancel()
            await asyncio.sleep(0.08)  # window floor elapses, flush runs
            stats = front.batching_stats()
            assert stats.empty_flushes >= 1
            assert stats.cancelled_callers == 1
            assert stats.flushes == 0
            with pytest.raises(asyncio.CancelledError):
                await doomed
            # The batcher is still healthy for live callers.
            assert await front.query(POSITIVES[1]) is True

    run(scenario())


def test_cancelled_caller_among_live_ones_does_not_poison_the_window(service):
    async def scenario():
        async with AdaptiveMicroBatcher(
            service, max_batch=32, max_wait_ms=50.0, min_wait_ms=20.0
        ) as front:
            doomed = asyncio.ensure_future(front.query(NEGATIVES[0]))
            live = [asyncio.ensure_future(front.query(key)) for key in POSITIVES[:5]]
            await asyncio.sleep(0.005)
            doomed.cancel()
            answers = await asyncio.gather(*live)
            assert answers == [True] * 5
            stats = front.batching_stats()
            assert stats.cancelled_callers == 1
            assert stats.coalesced_keys == 5

    run(scenario())


# --------------------------------------------------------------------- #
# Generation consistency across hot rebuilds
# --------------------------------------------------------------------- #
def test_rebuild_during_inflight_batch_keeps_one_generation(service):
    """A dispatched window answers entirely from the snapshot it started on.

    The generation-1 store is gated: the first window to reach it starts a
    hot rebuild on another thread and waits for the swap to generation 2
    before answering.  The in-flight window must still resolve every waiter
    with generation 1 verdicts (including a key that only generation 1
    contains), and traffic after the swap must see generation 2.
    """
    gen1_store = service.snapshot.store
    original_query_many = gen1_store.query_many
    only_gen1 = POSITIVES[0]
    refreshed = POSITIVES[1:]  # drop one key so the generations disagree
    swapped = []

    def gated_query_many(keys):
        if not swapped:
            rebuild = threading.Thread(
                target=lambda: swapped.append(service.rebuild(refreshed, NEGATIVES))
            )
            rebuild.start()
            rebuild.join(timeout=30.0)
            assert not rebuild.is_alive()
            # The window is inside the gen-1 store and gen 2 now serves.
            assert service.generation == 2
        return original_query_many(keys)

    gen1_store.query_many = gated_query_many

    async def scenario():
        async with AdaptiveMicroBatcher(service, max_batch=64, max_wait_ms=1.0) as front:
            inflight = [
                asyncio.ensure_future(front.query_with_generation(key))
                for key in [only_gen1, POSITIVES[1], NEGATIVES[0]]
            ]
            answers = await asyncio.gather(*inflight)
            after = await front.query_with_generation(POSITIVES[1])
            return answers, after

    answers, after = run(scenario())
    assert swapped == [2]
    assert answers == [(True, 1), (True, 1), (False, 1)]
    assert after == (True, 2)
    assert service.generation == 2


def test_window_during_a_rebuild_runs_on_the_worker_thread(service, monkeypatch):
    """While a generation is under construction, windows leave the loop.

    Construction is held open on an event.  Windows dispatched meanwhile
    must run on the batcher's worker thread (the busy loop would otherwise
    starve the build of the GIL) and answer from one generation; once the
    swap lands, windows run on the loop thread again.
    """
    calls = []  # (thread, keys) per store call, every generation
    original_query_many = ShardedFilterStore.query_many

    def recording_query_many(store, keys):
        calls.append((threading.current_thread(), len(keys)))
        return original_query_many(store, keys)

    monkeypatch.setattr(ShardedFilterStore, "query_many", recording_query_many)
    construct = service._construct_generation
    building = threading.Event()
    release = threading.Event()

    def gated_construct(*args, **kwargs):
        building.set()
        assert release.wait(timeout=10.0)
        return construct(*args, **kwargs)

    monkeypatch.setattr(service, "_construct_generation", gated_construct)

    async def scenario():
        loop = asyncio.get_running_loop()
        async with AdaptiveMicroBatcher(service, max_batch=64, max_wait_ms=1.0) as front:
            rebuild = loop.run_in_executor(
                None, service.rebuild, POSITIVES[1:], NEGATIVES
            )
            assert await loop.run_in_executor(None, building.wait, 10.0)
            assert service.constructions_in_flight == 1
            during = await asyncio.gather(
                front.query_with_generation(POSITIVES[0]),
                front.query_many_with_generation([POSITIVES[2], NEGATIVES[1]]),
            )
            calls_during = list(calls)
            release.set()
            assert await rebuild == 2
            assert service.constructions_in_flight == 0
            after = await front.query_with_generation(POSITIVES[1])
            return threading.current_thread(), during, calls_during, after

    loop_thread, during, calls_during, after = run(scenario())
    assert during == [(True, 1), ([True, False], 1)]
    assert calls_during and all(thread is not loop_thread for thread, _ in calls_during)
    assert after == (True, 2)
    assert calls[-1][0] is loop_thread


def test_inline_window_runs_on_the_loop_and_traces_its_probe(service):
    """An in-process window runs on the loop thread, and the store's
    shard_probe stages land on the same trace as its engine_dispatch."""
    spans = []
    tracer = Tracer(registry=service.registry, sample_rate=1.0, span_log=spans.append)
    threads = []
    store = service.snapshot.store
    original_query_many = store.query_many

    def recording_query_many(keys):
        threads.append(threading.current_thread())
        return original_query_many(keys)

    store.query_many = recording_query_many

    async def scenario():
        async with AdaptiveMicroBatcher(
            service, max_batch=64, max_wait_ms=1.0, tracer=tracer
        ) as front:
            verdicts = await front.query_many(POSITIVES[:4] + NEGATIVES[:4])
            return threading.current_thread(), verdicts

    loop_thread, verdicts = run(scenario())
    assert verdicts == [True] * 4 + [False] * 4
    assert threads == [loop_thread]
    traces = {}
    for span in spans:
        traces.setdefault(span["stage"], set()).add(span["trace_id"])
    assert len(traces["engine_dispatch"]) == 1
    assert traces["shard_probe"] == traces["engine_dispatch"]


# --------------------------------------------------------------------- #
# Stats plumbing
# --------------------------------------------------------------------- #
def test_front_end_stats_extend_service_stats(service):
    async def scenario():
        async with AdaptiveMicroBatcher(service, max_batch=32, max_wait_ms=2.0) as front:
            await asyncio.gather(*[front.query(key) for key in POSITIVES[:10]])
            return front.stats()

    stats = run(scenario())
    assert stats.generation == 1
    assert stats.queries == 10
    assert stats.batching is not None
    assert stats.batching.coalesced_keys == 10
    assert stats.batching.wait is not None
    assert stats.batching.wait.p50 <= stats.batching.wait.p99
    assert stats.batching.current_wait_ms <= 2.0
    # Plain service snapshots stay batching-free.
    assert service.stats().batching is None


def test_query_batch_reports_generation_and_counts(service):
    answer = service.query_batch([POSITIVES[0], NEGATIVES[0]])
    assert answer.verdicts == [True, False]
    assert answer.generation == 1
    assert len(answer) == 2
    assert answer.elapsed_seconds >= 0.0
    with pytest.raises(ServiceError):
        service.query_batch([])


# --------------------------------------------------------------------- #
# TCP line protocol
# --------------------------------------------------------------------- #
def test_tcp_protocol_roundtrip(service):
    async def scenario():
        async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
            host, port = await server.start_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"PING\nGEN\nQ " + POSITIVES[0].encode() + b"\n"
                b"M " + POSITIVES[1].encode() + b" " + NEGATIVES[0].encode() + b"\n"
                b"Q\nNONSENSE\nSTATS\n"
            )
            await writer.drain()
            lines = [await reader.readline() for _ in range(7)]
            writer.close()
            return [line.decode().strip() for line in lines]

    pong, gen, scalar, multi, bad_q, unknown, stats = run(scenario())
    assert pong == "PONG"
    assert gen == "G 1"
    assert scalar == "V 1 1"
    assert multi == "V 1 1 0"
    assert bad_q.startswith("E ")
    assert unknown.startswith("E unknown command")
    assert stats.startswith("S ")
    decoded = json.loads(stats[2:])
    assert decoded["generation"] == 1
    assert decoded["batching"]["coalesced_keys"] >= 3


def test_tcp_concurrent_connections_share_one_batcher(service):
    async def scenario():
        async with AsyncMembershipServer(service, max_wait_ms=3.0, max_batch=64) as server:
            host, port = await server.start_tcp()

            async def client(keys):
                reader, writer = await asyncio.open_connection(host, port)
                answers = []
                for key in keys:
                    writer.write(f"Q {key}\n".encode())
                    await writer.drain()
                    answers.append((await reader.readline()).decode().strip())
                writer.close()
                return answers

            per_client = [POSITIVES[i::8][:5] for i in range(8)]
            replies = await asyncio.gather(*[client(keys) for keys in per_client])
            return replies, server.batcher.batching_stats()

    replies, stats = run(scenario())
    assert all(reply == ["V 1 1"] * 5 for reply in replies)
    assert stats.coalesced_keys == 40
    # Eight connections issuing in lock-step coalesce into shared windows.
    assert stats.flushes < 40


# --------------------------------------------------------------------- #
# HTTP front-end
# --------------------------------------------------------------------- #
async def _http_request(host, port, raw: bytes):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw)
    await writer.drain()
    payload = await reader.read()
    writer.close()
    head, _, body = payload.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(body)


def test_http_endpoints(service):
    async def scenario():
        async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
            host, port = await server.start_http()
            query = await _http_request(
                host, port,
                f"GET /query?key={POSITIVES[0]} HTTP/1.1\r\nHost: t\r\n\r\n".encode(),
            )
            missing = await _http_request(
                host, port, b"GET /query HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            body = json.dumps([POSITIVES[1], NEGATIVES[0]]).encode()
            many = await _http_request(
                host, port,
                b"POST /query_many HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body,
            )
            lines_body = f"{POSITIVES[2]}\n{NEGATIVES[1]}\n".encode()
            many_lines = await _http_request(
                host, port,
                b"POST /query_many HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(lines_body)}\r\n\r\n".encode() + lines_body,
            )
            generation = await _http_request(
                host, port, b"GET /generation HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            stats = await _http_request(
                host, port, b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            lost = await _http_request(
                host, port, b"GET /nowhere HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            return query, missing, many, many_lines, generation, stats, lost

    query, missing, many, many_lines, generation, stats, lost = run(scenario())
    assert query == (200, {"key": POSITIVES[0], "member": True, "generation": 1})
    assert missing[0] == 400
    assert many == (200, {"members": [True, False], "generation": 1})
    assert many_lines == (200, {"members": [True, False], "generation": 1})
    assert generation == (200, {"generation": 1})
    assert stats[0] == 200 and stats[1]["batching"]["coalesced_keys"] >= 4
    assert lost[0] == 404


def test_shared_batcher_survives_server_close(service):
    async def scenario():
        async with AdaptiveMicroBatcher(service, max_wait_ms=1.0) as shared:
            server = AsyncMembershipServer(service, batcher=shared)
            host, port = await server.start_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(f"Q {POSITIVES[0]}\n".encode())
            await writer.drain()
            assert (await reader.readline()).decode().strip() == "V 1 1"
            writer.close()
            await server.aclose()
            # The server owned the listeners, not the batcher: in-process
            # callers keep working after the network front-end shuts down.
            assert await shared.query(POSITIVES[1]) is True

    run(scenario())


def test_http_oversized_body_is_refused_without_buffering(service):
    async def scenario():
        async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
            host, port = await server.start_http()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /query_many HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 10000000000\r\n\r\n"
            )
            await writer.drain()
            head = await reader.readline()
            writer.close()
            return head.decode()

    assert " 413 " in run(scenario())


def test_batcher_rejects_max_batch_above_service_cap():
    svc = MembershipService(backend="bloom", num_shards=1, max_batch_size=64)
    svc.load(POSITIVES[:10])
    with pytest.raises(ConfigurationError, match="max_batch_size"):
        AdaptiveMicroBatcher(svc, max_batch=100)


def test_tcp_large_m_request_within_limits_and_overlong_line(service):
    async def scenario():
        async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
            host, port = await server.start_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            # A ~90 KiB M line (5000 keys) is over asyncio's default 64 KiB
            # readline limit but within the server's raised stream limit.
            keys = [f"evil-{i % 300}.example" for i in range(5000)]
            writer.write(("M " + " ".join(keys) + "\n").encode())
            await writer.drain()
            reply = (await reader.readline()).decode().strip()
            assert reply.startswith("V 1 ")
            assert reply.split()[2:] == ["1"] * 5000
            writer.close()
            # A line over the stream limit gets an E reply, not a silent drop.
            reader2, writer2 = await asyncio.open_connection(host, port)
            writer2.write(b"M " + b"x" * (2 << 20))
            await writer2.drain()
            reply2 = (await reader2.readline()).decode().strip()
            assert reply2.startswith("E line exceeds")
            writer2.close()

    run(scenario())


def test_http_negative_content_length_is_a_400(service):
    async def scenario():
        async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
            host, port = await server.start_http()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /query_many HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n"
            )
            await writer.drain()
            head = await reader.readline()
            writer.close()
            return head.decode()

    assert " 400 " in run(scenario())


async def _http_error_exchange(host, port, raw: bytes):
    """Send ``raw``, return (status line, headers, close-observed).

    ``close-observed`` is True only if the server actually shut the socket:
    ``reader.read()`` must reach EOF without the client half-closing first.
    """
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw)
    await writer.drain()
    writer.write_eof()  # client is done sending; response + EOF must follow
    payload = await asyncio.wait_for(reader.read(), timeout=5.0)
    closed = reader.at_eof()
    writer.close()
    head, _, _body = payload.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    return lines[0], lines[1:], closed


def test_http_pipelined_second_request_does_not_destroy_the_response(service):
    """A pipelining client must still receive the first response intact.

    The server answers one request per connection; a second request sitting
    unread in the receive buffer at close time would trigger an RST that
    can destroy the 200 still in flight.  The success path drains before
    closing, so the client sees the complete response and then EOF.
    """

    async def scenario():
        async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
            host, port = await server.start_http()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"GET /query?key={POSITIVES[0]} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
                + b"GET /generation HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            await writer.drain()
            payload = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            return payload

    payload = run(scenario())
    head, _, body = payload.partition(b"\r\n\r\n")
    assert b" 200 " in head.splitlines()[0] + b" "
    assert json.loads(body) == {"key": POSITIVES[0], "member": True, "generation": 1}



@pytest.mark.parametrize(
    "raw, expected_status",
    [
        # Request line overrunning the 1 MiB stream limit → 414.
        (b"GET /" + b"x" * (2 << 20) + b" HTTP/1.1\r\n\r\n", "414"),
        # A single header line overrunning the stream limit → 431.
        (
            b"GET /generation HTTP/1.1\r\nX-Junk: " + b"y" * (2 << 20) + b"\r\n\r\n",
            "431",
        ),
        # Malformed request line → 400.
        (b"NONSENSE\r\n\r\n", "400"),
        # Body shorter than its declared Content-Length → 400.
        (
            b"POST /query_many HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\nshort",
            "400",
        ),
        # Undecodable JSON body → 400 (routed through the handler proper).
        (
            b"POST /query_many HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\n[oops",
            "400",
        ),
        # Oversized body that is actually sent → 413, and the response must
        # survive the unread megabytes (the handler drains before closing).
        (
            b"POST /query_many HTTP/1.1\r\nHost: t\r\nContent-Length: 2000000\r\n\r\n"
            + b"x" * 2_000_000,
            "413",
        ),
    ],
    ids=[
        "oversized-line",
        "oversized-header",
        "bad-request-line",
        "truncated-body",
        "bad-json",
        "oversized-body-sent",
    ],
)
def test_http_errors_reply_connection_close_and_close_the_socket(
    service, raw, expected_status
):
    """Every HTTP error path answers explicitly and then hangs up.

    The response must carry ``Connection: close`` and the server must
    actually close the connection (the client observes EOF without sending
    anything further) — a half-open socket after an error would wedge
    keep-alive clients forever.
    """

    async def scenario():
        async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
            host, port = await server.start_http()
            return await _http_error_exchange(host, port, raw)

    status_line, headers, closed = run(scenario())
    assert f" {expected_status} " in status_line + " "
    assert any(h.lower() == "connection: close" for h in headers), headers
    assert closed, "server left the socket open after an error response"


# --------------------------------------------------------------------- #
# Keep-alive framing
# --------------------------------------------------------------------- #
async def _read_framed_response(reader):
    """Read exactly one content-length-framed response; returns (status, headers, body)."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=5.0)
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if _:
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return status, headers, body


def test_http_keep_alive_serves_many_requests_on_one_socket(service):
    """An explicit ``Connection: keep-alive`` request keeps the socket open.

    Three requests ride one connection; each response is content-length
    framed and answers ``Connection: keep-alive``.  A final request without
    the header reverts to close semantics: one response, then EOF.
    """

    async def scenario():
        async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
            host, port = await server.start_http()
            reader, writer = await asyncio.open_connection(host, port)
            results = []
            for key in (POSITIVES[0], NEGATIVES[0], POSITIVES[1]):
                writer.write(
                    f"GET /query?key={key} HTTP/1.1\r\nHost: t\r\n"
                    "Connection: keep-alive\r\n\r\n".encode()
                )
                await writer.drain()
                results.append(await _read_framed_response(reader))
            # no keep-alive header → server answers and closes
            writer.write(b"GET /generation HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            final = await _read_framed_response(reader)
            trailing = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            return results, final, trailing

    results, final, trailing = run(scenario())
    verdicts = []
    for status, headers, body in results:
        assert status == 200
        assert headers["connection"] == "keep-alive"
        verdicts.append(json.loads(body)["member"])
    assert verdicts == [True, False, True]
    status, headers, body = final
    assert status == 200 and headers["connection"] == "close"
    assert json.loads(body) == {"generation": 1}
    assert trailing == b"", "server wrote past the framed close response"


def test_http_keep_alive_errors_still_close(service):
    """A 400 on a keep-alive connection must not keep it open."""

    async def scenario():
        async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
            host, port = await server.start_http()
            return await _http_error_exchange(
                host, port,
                b"GET /query HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
            )

    status_line, headers, closed = run(scenario())
    assert " 400 " in status_line + " "
    assert any(h.lower() == "connection: close" for h in headers), headers
    assert closed


# --------------------------------------------------------------------- #
# Rebuild-over-the-wire front-ends
# --------------------------------------------------------------------- #
def test_tcp_rebuild_command(service):
    """``R <json>`` rebuilds through the engine and reports the generation."""

    async def scenario():
        async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
            host, port = await server.start_tcp()
            reader, writer = await asyncio.open_connection(host, port)

            async def exchange(line):
                writer.write(line.encode() + b"\n")
                await writer.drain()
                return (await reader.readline()).decode().strip()

            spec = json.dumps(
                {"keys": POSITIVES + ["tcp-rebuilt.example"], "negatives": NEGATIVES}
            )
            rebuilt = await exchange(f"R {spec}")
            verdict = await exchange("Q tcp-rebuilt.example")
            bad_json = await exchange("R {not json")
            bad_field = await exchange('R {"keys": ["k"], "bogus": 1}')
            no_keys = await exchange('R {"keys": []}')
            writer.close()
            return rebuilt, verdict, bad_json, bad_field, no_keys

    rebuilt, verdict, bad_json, bad_field, no_keys = run(scenario())
    assert rebuilt == "R 2"
    assert verdict == "V 2 1"  # the new generation answers the new key
    assert bad_json.startswith("E ")
    assert bad_field.startswith("E ") and "bogus" in bad_field
    assert no_keys.startswith("E ")
    assert service.generation == 2


def test_http_post_rebuild(service):
    """``POST /rebuild`` installs a new generation and returns it."""

    async def scenario():
        async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
            host, port = await server.start_http()

            def post(spec_text):
                body = spec_text.encode()
                return _http_request(
                    host, port,
                    b"POST /rebuild HTTP/1.1\r\nHost: t\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode() + body,
                )

            ok = await post(json.dumps({
                "keys": POSITIVES + ["http-rebuilt.example"],
                "negatives": NEGATIVES,
                "incremental": True,
            }))
            member = await _http_request(
                host, port,
                b"GET /query?key=http-rebuilt.example HTTP/1.1\r\nHost: t\r\n\r\n",
            )
            not_dict = await post(json.dumps(["keys"]))
            unknown = await post(json.dumps({"keys": ["k"], "extra": True}))
            bad_costs = await post(json.dumps({"keys": ["k"], "costs": {"k": "x"}}))
            return ok, member, not_dict, unknown, bad_costs

    ok, member, not_dict, unknown, bad_costs = run(scenario())
    assert ok == (200, {"generation": 2, "num_keys": len(POSITIVES) + 1})
    assert member[0] == 200 and member[1]["member"] is True
    assert member[1]["generation"] == 2
    for status, body in (not_dict, unknown, bad_costs):
        assert status == 400 and "error" in body
    assert service.generation == 2


def test_http_rebuild_rejects_oversized_spec(service):
    """/rebuild enforces its own body cap with a clean 413."""

    async def scenario():
        async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
            host, port = await server.start_http()
            oversized = b"[" + b"x" * (9 << 20)
            raw = (
                b"POST /rebuild HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(oversized)}\r\n\r\n".encode()
                + oversized
            )
            return await _http_error_exchange(host, port, raw)

    status_line, headers, closed = run(scenario())
    assert " 413 " in status_line + " "
    assert closed


def test_rebuild_spec_caps_total_keys(service):
    """The key-count cap rejects specs before any build work happens.

    The spec stays under the 8 MiB body cap on purpose — this exercises the
    key-count limit, not the byte limit.
    """

    async def scenario():
        async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
            host, port = await server.start_http()
            body = json.dumps({"keys": ["k"] * 1_000_001}).encode()
            assert len(body) < 8 << 20
            return await _http_request(
                host, port,
                b"POST /rebuild HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body,
            )

    status, payload = run(scenario())
    assert status == 400 and "key" in payload["error"].lower()
    assert service.generation == 1
