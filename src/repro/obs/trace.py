"""Lightweight request tracing for the serving path.

A **trace** is minted at the front-end (one per micro-batcher flush window,
or per request for callers that want it), carried through
``AdaptiveMicroBatcher._flush`` → ``MembershipService.query_batch`` →
``ShardedFilterStore.query_many`` → the backend's ``contains_many`` via a
:mod:`contextvars` context variable, and records one timed **stage** per
pipeline step:

* ``queue_wait`` — how long a window stayed open collecting callers;
* ``window_assembly`` — building the engine request (``KeyBatch.concat``);
* ``engine_dispatch`` — the full ``query_batch`` round trip;
* ``shard_probe`` — each shard group's backend probe inside the store (one
  for all HABF shards answered by one fused program, one per other shard).

Stage durations land in one histogram family
(``repro_stage_seconds{stage=...}``) on the tracer's registry, and — for
traces selected by ``sample_rate`` — each stage additionally emits a
structured-JSON span record to the optional ``span_log`` callable, carrying
the trace id, a span id unique within the process, the stage name and
tags.  The cost model is asymmetric by design: when no trace is active the
per-stage hook is a single context-variable read (the instrumented hot
path stays hot); when one is active the cost is two clock reads and a
histogram increment.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import random
import threading
import time
from contextvars import ContextVar
from typing import Callable, Iterator, Optional

from repro.obs.core import DEFAULT_LATENCY_BUCKETS, Registry, default_registry

__all__ = ["Tracer", "ActiveTrace", "stage", "current_trace"]

#: The trace propagated through the current execution context (copied across
#: the micro-batcher's executor boundary by ``contextvars.copy_context``).
_CURRENT: ContextVar[Optional["ActiveTrace"]] = ContextVar("repro_trace", default=None)

_TRACE_IDS = itertools.count(1)
_ID_LOCK = threading.Lock()


def _mint_trace_id(rng: random.Random) -> str:
    with _ID_LOCK:
        sequence = next(_TRACE_IDS)
    return f"{rng.getrandbits(32):08x}-{sequence:x}"


class ActiveTrace:
    """One sampled-or-not trace flowing through the request pipeline."""

    __slots__ = ("tracer", "trace_id", "sampled", "_span_ids")

    def __init__(self, tracer: "Tracer", trace_id: str, sampled: bool) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.sampled = sampled
        self._span_ids = itertools.count(1)

    def next_span_id(self) -> int:
        return next(self._span_ids)


class Tracer:
    """Mints traces and records their stage timings.

    Args:
        registry: Where the ``repro_stage_seconds`` histogram lives
            (default: the process-global registry).
        sample_rate: Fraction of traces whose spans are written to
            ``span_log`` (stage *histograms* record every traced window
            regardless — sampling only bounds the per-span log volume).
        span_log: Callable receiving one ``dict`` per finished span of a
            sampled trace (e.g. ``lambda span: log.write(json.dumps(span))``).
            ``None`` disables span logging entirely.
        rng: Injectable randomness for deterministic sampling in tests.
    """

    def __init__(
        self,
        registry: Optional[Registry] = None,
        sample_rate: float = 0.01,
        span_log: Optional[Callable[[dict], None]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self._registry = registry if registry is not None else default_registry()
        self._sample_rate = sample_rate
        self._span_log = span_log
        self._rng = rng or random.Random()
        self._stage_seconds = self._registry.histogram(
            "repro_stage_seconds",
            "Wall-clock seconds spent per request-pipeline stage",
            labelnames=("stage",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._traces_total = self._registry.counter(
            "repro_traces_total",
            "Traces minted by the front-end",
            labelnames=("sampled",),
        )

    @property
    def registry(self) -> Registry:
        return self._registry

    @property
    def sample_rate(self) -> float:
        return self._sample_rate

    def begin(self) -> ActiveTrace:
        """Mint a trace (front-end entry point); does not activate it."""
        sampled = self._span_log is not None and self._rng.random() < self._sample_rate
        self._traces_total.labels("true" if sampled else "false").inc()
        return ActiveTrace(self, _mint_trace_id(self._rng), sampled)

    @contextlib.contextmanager
    def activate(self, trace: ActiveTrace) -> Iterator[ActiveTrace]:
        """Make ``trace`` the context's current trace for the block."""
        token = _CURRENT.set(trace)
        try:
            yield trace
        finally:
            _CURRENT.reset(token)

    def record_stage(
        self, trace: ActiveTrace, stage_name: str, seconds: float, **tags
    ) -> None:
        """Record one finished stage: histogram always, span log if sampled."""
        self._stage_seconds.labels(stage_name).observe(seconds)
        if trace.sampled and self._span_log is not None:
            span = {
                "trace_id": trace.trace_id,
                "span_id": trace.next_span_id(),
                "stage": stage_name,
                "duration_seconds": seconds,
            }
            if tags:
                span["tags"] = {key: str(value) for key, value in tags.items()}
            try:
                self._span_log(span)
            except Exception:
                pass  # a broken log sink must never fail a query


def current_trace() -> Optional[ActiveTrace]:
    """The trace active in this execution context, or ``None``."""
    return _CURRENT.get()


class _NoopStage:
    __slots__ = ()

    def __enter__(self) -> "_NoopStage":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NOOP = _NoopStage()


class _TimedStage:
    __slots__ = ("_trace", "_name", "_tags", "_start")

    def __init__(self, trace: ActiveTrace, name: str, tags: dict) -> None:
        self._trace = trace
        self._name = name
        self._tags = tags
        self._start = 0.0

    def __enter__(self) -> "_TimedStage":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._trace.tracer.record_stage(
            self._trace, self._name, time.perf_counter() - self._start, **self._tags
        )


def stage(name: str, **tags):
    """Time a pipeline stage under the context's current trace.

    The deep layers (shard store, backend probes) call this unconditionally;
    with no active trace it returns a shared no-op context manager, costing
    one context-variable read — cheap enough to sit on the batch hot path.

    >>> with stage("shard_probe", shard=3):
    ...     pass  # no active trace: no-op
    """
    trace = _CURRENT.get()
    if trace is None:
        return _NOOP
    return _TimedStage(trace, name, tags)


def span_log_to_jsonl(sink) -> Callable[[dict], None]:
    """A ``span_log`` writing one JSON object per line to a file-like sink."""

    def write(span: dict) -> None:
        sink.write(json.dumps(span, sort_keys=True) + "\n")

    return write
