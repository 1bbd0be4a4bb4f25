"""Span recording for the traced run, done entirely from the benchmark side.

:class:`SpanRecorder` wraps, at class level, the public entry point of each
serving layer the benchmark attributes time to, and doubles as the
``span_log`` sink of the batcher's existing :class:`repro.obs.Tracer`
stages.  Nothing in the program is edited: the server launcher calls
:meth:`SpanRecorder.install` before it builds the service, and dumps the
spans when it shuts down.

Every span is a tuple ``(id, name, start, end, group, attrs)`` with
``perf_counter`` times (CLOCK_MONOTONIC, so they line up with the client
process's clock).  ``group`` ties a span to its unit of work: ``w:<trace>``
inside a micro-batcher flush window, ``t:<n>`` inside a connection's asyncio
task, ``th:<n>`` on any other thread (rebuilds run on executor threads).
Parents are not tracked while recording; the client assigns each span the
smallest enclosing span of its group (:func:`perfbench.analysis.link`).
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import current_trace

Span = Tuple[int, str, float, float, str, Optional[dict]]


def _group() -> str:
    trace = current_trace()
    if trace is not None:
        return "w:" + trace.trace_id
    try:
        task = asyncio.current_task()
    except RuntimeError:  # no running loop: an executor thread
        task = None
    if task is not None:
        return f"t:{id(task)}"
    return f"th:{threading.get_ident()}"


def _keys(args, result) -> dict:
    return {"keys": len(args[1])}


def _encode_keys(args, result) -> dict:
    # KeyBatch(...) is wrapped at __init__ (args[1] = the keys) and concat is
    # a classmethod (args[1] = the parts); both yield len(batch) rows.
    return {"keys": len(args[0]) if result is None else len(result)}


def _walk_attrs(args, result) -> dict:
    _selections, valid = result
    return {"keys": len(args[1]), "valid": int(valid.sum())}


def _tpjo_attrs(args, result) -> dict:
    return {"initial": result.initial_collisions, "optimized": result.optimized}


def _rebuild_from_attrs(args, result) -> dict:
    previous = args[1]
    store, rebuilt, _skipped = result
    old_prints, new_prints = previous.shard_fingerprints, store.shard_fingerprints
    old_counts, new_counts = previous.shard_key_counts, store.shard_key_counts
    changed = sum(
        1
        for shard in rebuilt
        if old_prints[shard] != new_prints[shard] or old_counts[shard] != new_counts[shard]
    )
    return {"rebuilt": len(rebuilt), "changed": changed}


class SpanRecorder:
    """Collects spans in memory; :meth:`dump` writes them out at exit."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    # -- recording ------------------------------------------------------- #
    def record(self, name: str, start: float, end: float, group: str, attrs) -> None:
        self.spans.append((next(self._ids), name, start, end, group, attrs))

    def stage_log(self, span: dict) -> None:
        """``Tracer(span_log=...)`` sink: one finished batcher/store stage."""
        end = time.perf_counter()
        tags = span.get("tags")
        self.record(
            span["stage"],
            end - span["duration_seconds"],
            end,
            "w:" + span["trace_id"],
            dict(tags) if tags else None,
        )

    def wrap(
        self, owner: type, attr: str, name: str, attrs: Optional[Callable] = None
    ) -> None:
        """Time every call of ``owner.attr`` (sync, async or classmethod)."""
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        record = self.record

        if asyncio.iscoroutinefunction(func):

            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                group = _group()
                start = time.perf_counter()
                result = await func(*args, **kwargs)
                end = time.perf_counter()
                record(name, start, end, group, attrs(args, result) if attrs else None)
                return result

        else:

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                group = _group()
                start = time.perf_counter()
                result = func(*args, **kwargs)
                end = time.perf_counter()
                record(name, start, end, group, attrs(args, result) if attrs else None)
                return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def install(self) -> None:
        """Wrap each layer's public entry points (see ``layers.json``)."""
        from repro.core.hash_expressor import HashExpressor
        from repro.core.tpjo import TPJOOptimizer
        from repro.hashing.vectorized import KeyBatch
        from repro.service.aserve import AdaptiveMicroBatcher
        from repro.service.server import MembershipService
        from repro.service.shards import ShardedFilterStore, ShardRouter

        self.wrap(AdaptiveMicroBatcher, "query_with_generation", "aserve.batcher_call",
                  lambda args, result: {"keys": 1})
        self.wrap(AdaptiveMicroBatcher, "query_many_with_generation",
                  "aserve.batcher_call", _keys)
        self.wrap(MembershipService, "query_batch", "server.query_batch", _keys)
        self.wrap(MembershipService, "rebuild", "server.rebuild")
        self.wrap(ShardedFilterStore, "query_many", "shards.query_many", _keys)
        self.wrap(ShardedFilterStore, "rebuild_from", "shards.rebuild_from",
                  _rebuild_from_attrs)
        self.wrap(ShardRouter, "shard_of_many", "shards.route", _keys)
        self.wrap(KeyBatch, "__init__", "vectorized.encode", _encode_keys)
        self.wrap(KeyBatch, "concat", "vectorized.encode", _encode_keys)
        self.wrap(HashExpressor, "query_many_batch", "core.expressor_walk", _walk_attrs)
        self.wrap(TPJOOptimizer, "optimize", "core.tpjo", _tpjo_attrs)

    # -- output ---------------------------------------------------------- #
    def dump(self, path: str) -> None:
        rows: List[Dict] = [
            {"id": sid, "name": name, "start": start, "end": end, "group": group,
             "attrs": attrs}
            for sid, name, start, end, group, attrs in self.spans
        ]
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(rows, sink)
