"""Benchmark: adaptive micro-batching vs unbatched dispatch, 64 async clients.

Not a paper figure — this gates the serving front-end added on top of the
batch engine.  64 concurrent *scalar* clients (each awaiting its answer
before sending the next key — the closed-loop shape network callers
produce) drive the same loaded ``MembershipService`` two ways:

* **unbatched dispatch** — every key is its own engine call: the client
  awaits ``run_in_executor(service.query, key)``, which is what an asyncio
  front-end without a coalescing layer would do;
* **micro-batched** — the same awaits go through
  :class:`~repro.service.aserve.AdaptiveMicroBatcher`, which coalesces the
  in-flight keys of all 64 clients into shared ``query_batch`` windows.

Neither mode runs two engine calls at once, so the measured difference is
batching (and the thread hand-offs it saves: the batcher answers its
windows on the event loop), not parallelism.  The micro-batched mode must
win by at least
``REQUIRED_SPEEDUP``; the measured numbers land in
``BENCH_async_serving.json`` at the repo root so successive PRs can track
the trend (the README table quotes a recent run).
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.metrics.benchmeta import bench_environment
from repro.service import MembershipService
from repro.service.aserve import AdaptiveMicroBatcher
from repro.workloads.shalla import generate_shalla_like

NUM_CLIENTS = 64
KEYS_PER_CLIENT = 100
NUM_POSITIVES = 12_000
#: Micro-batching must beat per-key dispatch by at least this factor under
#: 64 concurrent scalar clients (measured margin is far larger; 3x keeps the
#: gate robust on noisy CI).
REQUIRED_SPEEDUP = 3.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_async_serving.json"


@pytest.fixture(scope="module")
def serving_setup():
    dataset = generate_shalla_like(
        num_positives=NUM_POSITIVES, num_negatives=NUM_POSITIVES, seed=29
    )
    # bloom-dh is the serving-path backend shape: every probe derives from
    # one base pass, so a window costs one column pass shared across shards.
    service = MembershipService(backend="bloom-dh", num_shards=4, bits_per_key=10.0)
    service.load(dataset.positives, dataset.negatives[: NUM_POSITIVES // 2])
    half = NUM_CLIENTS * KEYS_PER_CLIENT // 2
    probe = dataset.negatives[:half] + dataset.positives[:half]
    assert len(probe) == NUM_CLIENTS * KEYS_PER_CLIENT
    expected = service.query_many(probe)
    return service, probe, expected


async def _drive_clients(dispatch, probe):
    """64 closed-loop clients, each awaiting its slice one key at a time."""

    async def client(index):
        answers = []
        for key in probe[index * KEYS_PER_CLIENT : (index + 1) * KEYS_PER_CLIENT]:
            answers.append(await dispatch(key))
        return answers

    start = time.perf_counter()
    per_client = await asyncio.gather(*[client(i) for i in range(NUM_CLIENTS)])
    elapsed = time.perf_counter() - start
    answers = [answer for group in per_client for answer in group]
    return answers, elapsed


def _run_unbatched(service, probe):
    async def scenario():
        loop = asyncio.get_running_loop()
        with ThreadPoolExecutor(max_workers=1) as executor:
            return await _drive_clients(
                lambda key: loop.run_in_executor(executor, service.query, key), probe
            )

    return asyncio.run(scenario())


def _run_batched(service, probe):
    async def scenario():
        async with AdaptiveMicroBatcher(
            service, max_batch=256, max_wait_ms=2.0
        ) as front:
            answers, elapsed = await _drive_clients(front.query, probe)
            return answers, elapsed, front.batching_stats()

    return asyncio.run(scenario())


@pytest.fixture(scope="module")
def serving_report(serving_setup):
    service, probe, expected = serving_setup
    # Best-of-two per mode: one scheduler stall on a shared runner must not
    # decide the gated ratio.
    unbatched_seconds = batched_seconds = float("inf")
    stats = None
    for _ in range(2):
        answers, elapsed = _run_unbatched(service, probe)
        assert answers == expected, "unbatched dispatch verdicts diverged"
        unbatched_seconds = min(unbatched_seconds, elapsed)

        answers, elapsed, stats = _run_batched(service, probe)
        assert answers == expected, "micro-batched verdicts diverged"
        batched_seconds = min(batched_seconds, elapsed)

    total_keys = len(probe)
    report = {
        "benchmark": "async_serving",
        **bench_environment(),
        "clients": NUM_CLIENTS,
        "keys_per_client": KEYS_PER_CLIENT,
        "backend": "bloom-dh",
        "unbatched_qps": round(total_keys / unbatched_seconds),
        "batched_qps": round(total_keys / batched_seconds),
        "speedup": round(unbatched_seconds / batched_seconds, 2),
        "batch_size_p50": stats.batch_size.p50,
        "batch_size_p99": stats.batch_size.p99,
        "window_wait_p99_ms": round(stats.wait.p99 * 1e3, 3),
        "flushes": stats.flushes,
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_micro_batching_speedup(serving_report):
    print(
        f"\nunbatched={serving_report['unbatched_qps']:,} q/s  "
        f"batched={serving_report['batched_qps']:,} q/s  "
        f"speedup={serving_report['speedup']}x  "
        f"batch p50={serving_report['batch_size_p50']:.0f} keys  "
        f"window p99={serving_report['window_wait_p99_ms']}ms"
    )
    assert serving_report["speedup"] >= REQUIRED_SPEEDUP, (
        f"micro-batching only {serving_report['speedup']}x over unbatched "
        f"dispatch (required {REQUIRED_SPEEDUP}x)"
    )


def test_windows_actually_coalesce(serving_report):
    # 6400 keys through far fewer engine dispatches, at real batch sizes.
    assert serving_report["flushes"] < NUM_CLIENTS * KEYS_PER_CLIENT / 4
    assert serving_report["batch_size_p50"] >= 8


def test_report_written(serving_report):
    recorded = json.loads(RESULT_PATH.read_text())
    assert recorded["clients"] == NUM_CLIENTS
    assert recorded["speedup"] == serving_report["speedup"]
