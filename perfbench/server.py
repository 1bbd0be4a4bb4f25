"""Benchmark-owned launcher: one ``AsyncMembershipServer`` in its own process.

The service starts empty; the client loads the first generation over the
wire with ``POST /rebuild``.  The launcher prints ``READY <tcp> <http>`` once
both listeners are bound and serves until its standard input closes, so it
never outlives the client that started it.  With ``--spans-out`` it records
the traced run (:mod:`perfbench.tracing`) and writes the spans there on exit.

    python3 perfbench/server.py --backend bloom-dh --shards 4 [--spans-out F]
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.tracing import SpanRecorder  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.service import AsyncMembershipServer, MembershipService  # noqa: E402


async def serve(args) -> None:
    recorder = None
    if args.spans_out:
        recorder = SpanRecorder()
        recorder.install()
    service = MembershipService(backend=args.backend, num_shards=args.shards)
    options = {}
    if recorder is not None:
        options["tracer"] = Tracer(
            registry=service.registry, sample_rate=1.0, span_log=recorder.stage_log
        )
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def watch_stdin() -> None:
        sys.stdin.buffer.read()  # returns at EOF: the client is done with us
        loop.call_soon_threadsafe(stop.set)

    async with AsyncMembershipServer(service, **options) as server:
        _, tcp_port = await server.start_tcp()
        _, http_port = await server.start_http()
        watcher = threading.Thread(target=watch_stdin, daemon=True)
        watcher.start()
        print(f"READY {tcp_port} {http_port}", flush=True)
        await stop.wait()
    if recorder is not None:
        recorder.dump(args.spans_out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", required=True)
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument("--spans-out", default=None)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
