"""Turn the traced run's spans into per-layer self times and counts.

A layer's self time is its span minus the child spans inside it.  Spans are
linked to their parents here: the parent of a span is the smallest span of
the same group (flush window, connection task or thread) that encloses it.

Two normalisations are used, and each metric name says which:

* ``..._per_key`` — layer time summed over windows, divided by the keys
  those windows answered (what the layer costs per key of throughput);
* plain ``..._us`` — the layer's contribution to one request's latency:
  every request in a window waits for the whole window, so window spans are
  weighted by the requests they carried.  These are the terms of the
  attribution check, which compares their sum with the client's measured
  mean latency.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Clock slack when testing containment: Tracer stages are logged as
#: ``end - duration`` and land a few microseconds late.
_SLACK_S = 20e-6

Window = Tuple[float, float]


def link(spans: List[dict]) -> None:
    """Set ``span["parent"]`` to the id of the smallest enclosing span."""
    groups: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        groups[span["group"]].append(span)
    for members in groups.values():
        members.sort(key=lambda s: (s["start"], -s["end"]))
        stack: List[dict] = []
        for span in members:
            while stack and (
                stack[-1]["end"] <= span["start"] or stack[-1]["end"] + _SLACK_S < span["end"]
            ):
                stack.pop()
            span["parent"] = stack[-1]["id"] if stack else None
            stack.append(span)


def _inside(t: float, windows: Sequence[Window]) -> bool:
    return any(lo <= t < hi for lo, hi in windows)


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    spans: List[dict],
    query_windows: Sequence[Window],
    rebuild_windows: Sequence[Window],
    latencies_s: Sequence[float],
    rebuild_round_trips_s: Sequence[float],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics plus the latency breakdown of the attribution check.

    ``query_windows`` / ``rebuild_windows`` are the client's measured
    intervals on the traced server: spans starting outside them (set-up,
    warm-up, the accuracy sweep) are left out.  ``latencies_s`` are the
    client round trips of the query requests in ``query_windows``.
    """
    link(spans)
    children: Dict[int, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def dur(span: dict) -> float:
        return span["end"] - span["start"]

    def kids(span: dict, name: str) -> List[dict]:
        return [child for child in children[span["id"]] if child["name"] == name]

    def descendants(span: dict, name: str) -> List[dict]:
        found, todo = [], list(children[span["id"]])
        while todo:
            child = todo.pop()
            if child["name"] == name:
                found.append(child)
            todo.extend(children[child["id"]])
        return found

    # ---- query path: flush windows and the requests they carried ---------
    windows: Dict[str, Dict[str, List[dict]]] = defaultdict(lambda: defaultdict(list))
    for span in spans:
        if span["group"].startswith("w:"):
            windows[span["group"]][span["name"]].append(span)
    measured = [
        stages for stages in windows.values()
        if stages["queue_wait"] and _inside(stages["queue_wait"][0]["end"], query_windows)
        and stages["engine_dispatch"]
    ]
    calls = [
        span for span in spans
        if span["name"] == "aserve.batcher_call" and _inside(span["start"], query_windows)
    ]
    keys = 0
    per_key = defaultdict(float)  # seconds summed over windows
    window_keys: List[int] = []
    walk_keys = walk_valid = habf_keys = 0
    for stages in measured:
        k = int(stages["queue_wait"][0]["attrs"]["keys"])
        keys += k
        window_keys.append(k)
        dispatch = stages["engine_dispatch"][0]
        assembly = stages["window_assembly"][0]
        batch_calls = stages["server.query_batch"]
        query_many = stages["shards.query_many"]
        probes = stages["shard_probe"]
        parts = {
            "queue_wait": dur(stages["queue_wait"][0]),
            "assembly_encode": sum(dur(s) for s in kids(assembly, "vectorized.encode")),
            "dispatch_hop": dur(dispatch) - sum(dur(s) for s in batch_calls),
            "query_batch_self": sum(dur(s) for s in batch_calls)
            - sum(dur(s) for s in query_many),
            "route": sum(dur(s) for s in stages["shards.route"]),
            "probe": sum(dur(s) for s in probes),
            "walk": sum(dur(s) for s in stages["core.expressor_walk"]),
        }
        parts["assembly_self"] = dur(assembly) - parts["assembly_encode"]
        parts["query_many_self"] = (
            sum(dur(s) for s in query_many) - parts["route"] - parts["probe"]
        )
        stages["parts"] = parts
        for name, seconds in parts.items():
            per_key[name] += seconds
        for walk in stages["core.expressor_walk"]:
            walk_keys += walk["attrs"]["keys"]
            walk_valid += walk["attrs"]["valid"]
        if probes and probes[0]["attrs"].get("backend") == "habf":
            habf_keys += k

    # Each request joins the first window assembled after it was enqueued
    # (enqueueing and assembly both run on the event loop, so they never
    # interleave); it waits for that whole window, then for its coroutine to
    # resume.  Requests whose window was not measured are left out.
    measured.sort(key=lambda stages: stages["window_assembly"][0]["start"])
    assembly_starts = [stages["window_assembly"][0]["start"] for stages in measured]
    per_request = defaultdict(float)  # seconds summed over linked requests
    requests = 0
    handler_encode_s = 0.0
    for call in calls:
        encodes = descendants(call, "vectorized.encode")
        enqueued = max([call["start"]] + [span["end"] for span in encodes])
        index = bisect.bisect_left(assembly_starts, enqueued)
        if index == len(measured):
            continue
        stages = measured[index]
        dispatch_end = stages["engine_dispatch"][0]["end"]
        if call["end"] + _SLACK_S < dispatch_end:
            continue  # answered before that window finished: not its window
        requests += 1
        encode_s = sum(dur(span) for span in encodes)
        handler_encode_s += encode_s
        per_request["batcher_call"] += dur(call)
        per_request["encode"] += encode_s + stages["parts"]["assembly_encode"]
        per_request["own_wait"] += assembly_starts[index] - enqueued
        per_request["settle"] += call["end"] - dispatch_end
        for name, seconds in stages["parts"].items():
            per_request[name] += seconds

    def pk(name: str) -> float:  # microseconds per key
        return 1e6 * per_key[name] / keys if keys else 0.0

    def pr(name: str) -> float:  # microseconds per request
        return 1e6 * per_request[name] / requests if requests else 0.0

    latency_us = 1e6 * _mean(latencies_s)
    breakdown = {
        "aserve.frontend_self": latency_us - pr("batcher_call"),
        "vectorized.encode": pr("encode"),
        "aserve.batcher.queue_wait": pr("queue_wait"),
        "aserve.batcher.flusher_wait": pr("own_wait") - pr("queue_wait"),
        "aserve.batcher.assembly_self": pr("assembly_self"),
        "aserve.batcher.dispatch_hop": pr("dispatch_hop"),
        "server.query_batch_self": pr("query_batch_self"),
        "shards.query_many_self": pr("query_many_self"),
        "shards.route": pr("route"),
        "shards.shard_probe": pr("probe"),
        "aserve.batcher.settle": pr("settle"),
    }
    unattributed = latency_us - sum(breakdown.values())
    breakdown["unattributed"] = unattributed
    breakdown["client_mean_latency"] = latency_us
    breakdown["linked_requests"] = requests

    # ---- rebuild path --------------------------------------------------
    rebuilds = [
        span for span in spans
        if span["name"] == "server.rebuild" and _inside(span["start"], rebuild_windows)
    ]
    rebuild_froms = [child for span in rebuilds for child in kids(span, "shards.rebuild_from")]
    tpjo = [child for span in rebuilds for child in descendants(span, "core.tpjo")]
    rebuilt = sum(span["attrs"]["rebuilt"] for span in rebuild_froms)
    changed = sum(span["attrs"]["changed"] for span in rebuild_froms)
    initial = sum(span["attrs"]["initial"] for span in tpjo)
    optimized = sum(span["attrs"]["optimized"] for span in tpjo)
    rebuild_ms = 1e3 * _mean(dur(span) for span in rebuilds)

    metrics = {
        "aserve.frontend_self_us": breakdown["aserve.frontend_self"],
        "aserve.batcher.queue_wait_us": breakdown["aserve.batcher.queue_wait"],
        "aserve.batcher.dispatch_hop_us": breakdown["aserve.batcher.dispatch_hop"],
        "aserve.batcher.flusher_wait_us": breakdown["aserve.batcher.flusher_wait"],
        "aserve.batcher.settle_us": breakdown["aserve.batcher.settle"],
        "aserve.batcher.window_keys_p50": float(statistics.median(window_keys))
        if window_keys else 0.0,
        "aserve.rebuild_wire_ms": 1e3 * _mean(rebuild_round_trips_s) - rebuild_ms
        if rebuilds else 0.0,
        "server.query_batch_self_us_per_key": pk("query_batch_self"),
        "server.rebuild_self_ms": rebuild_ms
        - 1e3 * _mean(dur(span) for span in rebuild_froms) if rebuilds else 0.0,
        "vectorized.encode_us_per_key": (
            1e6 * handler_encode_s / keys + pk("assembly_encode")
            if keys else 0.0
        ),
        "shards.route_us_per_key": pk("route"),
        "shards.query_many_self_us_per_key": pk("query_many_self"),
        "shards.shard_probe_us_per_key": pk("probe"),
        "shards.rebuild_from_ms": 1e3 * _mean(dur(span) for span in rebuild_froms),
        "shards.dirty_shards_per_rebuild": rebuilt / len(rebuild_froms)
        if rebuild_froms else 0.0,
        "shards.rebuild_useful_ratio": changed / rebuilt if rebuilt else 0.0,
        "core.expressor_walk_us_per_key": pk("walk"),
        "core.round2_share": walk_keys / habf_keys if habf_keys else 0.0,
        "core.round2_recovered_share": walk_valid / walk_keys if walk_keys else 0.0,
        "core.tpjo_ms_per_shard": 1e3 * _mean(dur(span) for span in tpjo),
        "core.tpjo_optimized_share": optimized / initial if initial else 0.0,
        "obs.unattributed_pct": 100.0 * unattributed / latency_us if latency_us else 0.0,
    }
    return metrics, breakdown


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (``q`` in 0–100) of ``values``."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
