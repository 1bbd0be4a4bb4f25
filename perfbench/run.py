#!/usr/bin/env python3
"""Wire-level serving benchmark for the HABF membership service.

Launches ``AsyncMembershipServer`` in its own process (``perfbench/server.py``),
loads the first generation over the wire with ``POST /rebuild``, drives it
closed-loop from this process over at most two loopback connections, checks
every reply, and prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Workloads, metrics and the layer map are described in
``perfbench/README.md`` and ``perfbench/layers.json``.

    python3 perfbench/run.py --workload batch_http --seed 1 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
# The program under test is imported from this checkout's sources, never
# from an installed copy.
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    sys.exit(f"perfbench: no program sources under {SRC}")
sys.path[:0] = [SRC, ROOT]

from perfbench import workload as wl  # noqa: E402
from perfbench.analysis import layer_metrics, percentile  # noqa: E402
from perfbench.client import (  # noqa: E402
    HttpConnection,
    LineConnection,
    Mismatch,
    RebuildTrigger,
    RequestError,
    ServerProcess,
    Tally,
    drive,
    run_threads,
)
from repro.metrics.benchmeta import bench_environment  # noqa: E402

#: Servers launched (and loaded) per untraced run; ``setup_s`` is the median.
SETUPS = 3
#: Traffic before each measured server's first timed phase (caches, lazy set-up).
WARMUP_S = 1.0
#: ``costed_rebuild``: the writer pushes a rebuild after this many reader replies.
REBUILD_EVERY = 50
#: ``point_tcp`` / ``batch_http``: rebuilds pushed after the timed phase, which
#: give ``rebuild_p50_s`` on the read-only workloads.
TAIL_REBUILDS = 20
#: The attribution check: layer self times must sum to within this share of
#: the client's mean request latency.
ATTRIBUTION_TOLERANCE = 0.10


# --------------------------------------------------------------------- #
# Phases
# --------------------------------------------------------------------- #
def start_server(work, tally, spans_out=None):
    """Launch, load over the wire, get the first answer; returns (server, s)."""
    spec, inputs = work.spec, work.inputs
    first = inputs.positives[0]
    started = time.perf_counter()
    server = ServerProcess(spec.backend, spec.shards, spans_out)
    http = HttpConnection(server.http_port)
    try:
        tally.attempted += 2
        loaded = json.loads(http.request(
            wl.http_request("POST", "/rebuild", inputs.rebuild_body(0))))
        if spec.protocol == "tcp":
            line = LineConnection(server.tcp_port)
            try:
                reply = line.request(wl.tcp_request([first]))
            finally:
                line.close()
            ok = reply == b"V 1 1"
        else:
            reply = http.request(wl.query_many_request([first]))
            ok = json.loads(reply) == {"members": [True], "generation": 1}
    except RequestError as exc:
        server.stop()
        raise RuntimeError(f"set-up request failed: {exc}") from None
    finally:
        http.close()
    seconds = time.perf_counter() - started
    if loaded.get("generation") != 1 or not ok:
        tally.mismatches.append(Mismatch("set-up", f"load {loaded!r}, first answer {reply!r}"))
    return server, seconds


def push_rebuild(connection, server, work, tally) -> None:
    number = server.rebuilds + 1
    payload = wl.http_request("POST", "/rebuild", work.inputs.rebuild_body(number))
    sent = time.perf_counter()
    try:
        reply = connection.request(payload)
    except RequestError:
        tally.add_rebuild(sent, None)
        return
    received = time.perf_counter()
    generation = json.loads(reply).get("generation")
    server.rebuilds = number
    problem = None
    if generation != 1 + number:
        problem = f"rebuild {number} answered generation {generation}, want {1 + number}"
    tally.add_rebuild(sent, received, problem)


def run_phase(server, work, seconds: float, tally):
    """Drive ``server`` closed-loop for ``seconds``; returns the (start, end) window."""
    spec = work.spec
    total = len(work.requests)
    if spec.costed:
        reader = LineConnection(server.tcp_port)
        writer = HttpConnection(server.http_port)
        connections = [reader, writer]
    else:
        kind = LineConnection if spec.protocol == "tcp" else HttpConnection
        connections = [kind(server.tcp_port if spec.protocol == "tcp" else server.http_port)
                       for _ in range(2)]
    for connection in connections:
        connection.connect()
    start = time.perf_counter()
    deadline = start + seconds
    if spec.costed:
        trigger = RebuildTrigger(REBUILD_EVERY)

        def write() -> None:
            while trigger.wait(deadline):
                push_rebuild(writer, server, work, tally)

        targets = [
            lambda: drive(reader, work.requests, work.make_check(), 0, deadline, tally,
                          trigger.on_reply),
            write,
        ]
    else:
        targets = [
            (lambda c=c, n=n: drive(c, work.requests, work.make_check(), n * total // 2,
                                    deadline, tally))
            for n, c in enumerate(connections)
        ]
    try:
        run_threads(targets)
    finally:
        for connection in connections:
            connection.close()
    return start, deadline


def tail_rebuilds(server, work, tally):
    connection = HttpConnection(server.http_port)
    start = time.perf_counter()
    try:
        for _ in range(TAIL_REBUILDS):
            push_rebuild(connection, server, work, tally)
    finally:
        connection.close()
    return start, time.perf_counter()


def sweep(server, work, tally) -> dict:
    """Query every key once at the final generation; verdicts must match a
    reference built from the final inputs.  Returns the accuracy figures."""
    spec, inputs = work.spec, work.inputs
    generation = 1 + server.rebuilds
    positives = inputs.keys_after(server.rebuilds)
    keys = positives + inputs.trained + inputs.held_out
    expected = wl.answer(wl.reference(spec, inputs, server.rebuilds), keys)
    got = []
    connection = HttpConnection(server.http_port)
    try:
        for group in wl.chunks(keys, wl.SWEEP_KEYS):
            tally.attempted += 1
            try:
                body = json.loads(connection.request(wl.query_many_request(group)))
            except RequestError:
                tally.failed += 1
                return {}
            if body.get("generation") != generation:
                tally.mismatches.append(Mismatch(
                    "sweep", f"generation {body.get('generation')}, want {generation}"))
            got.extend(body.get("members", []))
    finally:
        connection.close()
    if got != expected:
        wrong = sum(1 for a, b in zip(got, expected) if a != b) + abs(len(got) - len(expected))
        tally.mismatches.append(Mismatch(
            "sweep", f"{wrong} of {len(keys)} verdicts differ from the final reference"))
    n_pos, n_trained = len(positives), len(inputs.trained)
    false_negatives = n_pos - sum(got[:n_pos])
    if false_negatives:
        tally.mismatches.append(Mismatch("sweep", f"{false_negatives} false negatives"))
    trained = got[n_pos : n_pos + n_trained]
    held = got[n_pos + n_trained :]
    total_cost = sum(inputs.costs[key] for key in inputs.trained)
    fp_cost = sum(inputs.costs[key] for key, hit in zip(inputs.trained, trained) if hit)
    return {
        "fpr": sum(held) / len(held),
        "fpr_trained": sum(trained) / len(trained),
        "fpr_cost": fp_cost / total_cost,
        "generation": generation,
    }


# --------------------------------------------------------------------- #
# The two kinds of run
# --------------------------------------------------------------------- #
def per_second(tallies, windows):
    """``(keys, latencies)`` of the verified requests completed in each whole
    second of the timed phases."""
    slots = []
    for tally, (start, end) in zip(tallies, windows):
        phase = [(0, []) for _ in range(max(1, int(end - start)))]
        for sent, received, count in tally.samples:
            second = int(received - start)
            if second < len(phase):
                keys, latencies = phase[second]
                latencies.append(received - sent)
                phase[second] = (keys + count, latencies)
        slots.extend(phase)
    return slots


def faster_half(slots):
    """The half of the seconds in which the server answered the most keys.

    Shared cloud machines lose CPU to other tenants for seconds at a time
    (CPU steal, and the same work running up to 20% slower).  That only ever
    slows a second down, so the throughput and latency figures come from the
    less disturbed half of the timed seconds; a slower program slows every
    second and still shows.
    """
    ranked = sorted(slots, key=lambda slot: slot[0], reverse=True)
    return ranked[: (len(ranked) + 1) // 2]


def speed(slots) -> dict:
    """keys/s (median second) and latency percentiles (ms) over ``slots``."""
    latencies = [latency for _, chunk in slots for latency in chunk]
    return {
        "keys_per_s": float(statistics.median(keys for keys, _ in slots)),
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p90_ms": 1e3 * percentile(latencies, 90),
        "latency_p99_ms": 1e3 * percentile(latencies, 99),
        "requests": len(latencies),
    }


def _latencies(tallies):
    return [received - sent for tally in tallies for sent, received, _ in tally.samples]


def untraced_run(work, seconds: float, tallies) -> dict:
    setup = Tally()
    tallies.append(setup)
    setups, server = [], None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            server, elapsed = start_server(work, setup)
            setups.append(elapsed)
        run_phase(server, work, WARMUP_S, setup)
        timed = Tally()
        tallies.append(timed)
        window = run_phase(server, work, seconds, timed)
        rebuild_tally = timed
        if not work.spec.costed:
            rebuild_tally = Tally()
            tallies.append(rebuild_tally)
            tail_rebuilds(server, work, rebuild_tally)
        accuracy = sweep(server, work, setup)
        stats = server.stats()
        rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    slots = per_second([timed], [window])
    kept_slots = faster_half(slots)
    kept = speed(kept_slots)
    rebuild_rts = [received - sent for sent, received in rebuild_tally.rebuilds]
    bits = sum(shard["size_in_bits"] for shard in stats["shards"])
    metrics = {
        "setup_s": statistics.median(setups),
        "keys_per_s": kept["keys_per_s"],
        "latency_p50_ms": kept["latency_p50_ms"],
        "latency_p90_ms": kept["latency_p90_ms"],
        "rebuild_p50_s": statistics.median(rebuild_rts) if rebuild_rts else 0.0,
        "fpr": accuracy.get("fpr", 0.0),
        "bits_per_key": bits / stats["num_keys"],
        "server_rss_mb": rss_mb,
    }
    extra = {
        "samples": {"requests": kept["requests"], "seconds": len(kept_slots),
                    "rebuilds": len(rebuild_rts), "setups": len(setups)},
        "latency_p99_ms": kept["latency_p99_ms"],
        "all_seconds": speed(slots),
        "fpr_cost": accuracy.get("fpr_cost"),
        "fpr_trained": accuracy.get("fpr_trained"),
        "final_generation": accuracy.get("generation"),
        "rejected_batches": stats["rejected_batches"],
    }
    return {"metrics": metrics, "extra": extra}


def traced_run(work, seconds: float, tallies, spans_path: str) -> dict:
    """Untraced and traced servers side by side, driven U T T U.

    The per-layer metrics come from the traced server's spans; the keys/s of
    the two servers give the tracing overhead.
    """
    raw_spans = spans_path + ".raw"
    setup = Tally()
    tallies.append(setup)
    plain = traced = None
    try:
        plain, _ = start_server(work, setup)
        traced, _ = start_server(work, setup, spans_out=raw_spans)
        for server in (plain, traced):
            run_phase(server, work, WARMUP_S, setup)
        phases = {id(plain): ([], []), id(traced): ([], [])}  # (windows, tallies)
        for server in (plain, traced, traced, plain):
            tally = Tally()
            tallies.append(tally)
            windows, measured = phases[id(server)]
            windows.append(run_phase(server, work, seconds / 4, tally))
            measured.append(tally)
        plain_windows, plain_tallies = phases[id(plain)]
        traced_windows, traced_tallies = phases[id(traced)]
        # Rebuilds the per-layer rebuild metrics cover: the writer's, or the
        # tail pushed after the timed phases on the read-only workloads.
        rebuild_windows, rebuild_tallies = traced_windows, traced_tallies
        if not work.spec.costed:
            tail = Tally()
            tallies.append(tail)
            rebuild_windows, rebuild_tallies = [tail_rebuilds(traced, work, tail)], [tail]
        accuracy = sweep(traced, work, setup)
        sweep(plain, work, setup)
        rejected = sum(server.stats()["rejected_batches"] for server in (plain, traced))
    finally:
        for server in (plain, traced):
            if server is not None:
                server.stop()
    with open(raw_spans, encoding="utf-8") as source:
        spans = json.load(source)
    os.remove(raw_spans)

    plain_rate = speed(faster_half(per_second(plain_tallies, plain_windows)))["keys_per_s"]
    traced_rate = speed(faster_half(per_second(traced_tallies, traced_windows)))["keys_per_s"]
    metrics, breakdown = layer_metrics(
        spans,
        traced_windows,
        rebuild_windows,
        _latencies(traced_tallies),
        [received - sent for tally in rebuild_tallies for sent, received in tally.rebuilds],
    )
    metrics["aserve.errors"] = float(sum(t.failed for t in tallies))
    metrics["server.rejected_batches"] = float(rejected)
    metrics["obs.trace_overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate
    metrics["core.fpr_cost"] = accuracy.get("fpr_cost", 0.0)
    write_spans(spans_path, spans, traced_tallies + rebuild_tallies)
    return {
        "metrics": metrics,
        "extra": {
            "breakdown_us_per_request": breakdown,
            "keys_per_s_untraced": plain_rate,
            "keys_per_s_traced": traced_rate,
            "spans": os.path.relpath(spans_path, ROOT),
        },
    }


def write_spans(path: str, spans, tallies) -> None:
    """Server spans (parents linked) plus the client's request spans."""
    with open(path, "w", encoding="utf-8") as sink:
        for span in spans:
            sink.write(json.dumps(span) + "\n")
        number = 0
        for tally in {id(tally): tally for tally in tallies}.values():
            for name, pairs in (("client.request", tally.samples),
                                ("client.rebuild", tally.rebuilds)):
                for sent, received, *_ in pairs:
                    number += 1
                    sink.write(json.dumps({
                        "id": f"c{number}", "name": name, "start": sent, "end": received,
                        "group": "client", "parent": None, "attrs": None}) + "\n")


# --------------------------------------------------------------------- #
# Stamp and report
# --------------------------------------------------------------------- #
def cpu_ticks():
    """The machine-wide CPU tick counters (user, nice, system, idle, ..., steal)."""
    try:
        with open("/proc/stat", encoding="ascii") as source:
            return [int(field) for field in source.readline().split()[1:]]
    except OSError:
        return []


def stamp(args, spec) -> dict:
    commit = None
    # Only this checkout's own repository: git would otherwise report the
    # commit of any repository that happens to enclose the directory.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass  # git unavailable: the source digest still identifies the code
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as source:
            digest.update(source.read())
    return {
        "workload": args.workload,
        "backend": spec.backend,
        "shards": spec.shards,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "environment": bench_environment(),
    }


def report(result: dict, metric_units: dict, layer_map: dict, tallies) -> None:
    stamp_ = result["stamp"]
    print(f"perfbench {stamp_['workload']} seed={stamp_['seed']} trace={stamp_['trace']} "
          f"commit={stamp_['commit']} source={stamp_['source_sha256'][:12]} "
          f"backend={stamp_['backend']} shards={stamp_['shards']}")
    print(f"  environment {json.dumps(stamp_['environment'], sort_keys=True)}")
    for name, value in result["metrics"].items():
        where = layer_map.get(name)
        note = f"   should move {where['moves']} on {where['on']}" if where else ""
        print(f"  {name:40s} {value:14.6g} {metric_units.get(name, '')}{note}")
    for name, value in result["extra"].items():
        if name != "breakdown_us_per_request":
            print(f"  {name:40s} {value}")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(f"  {'error_rate':40s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    breakdown = result["extra"].get("breakdown_us_per_request")
    if breakdown:
        latency = breakdown["client_mean_latency"]
        print(f"  self time per request (us), client mean latency {latency:.1f} us:")
        for name, value in breakdown.items():
            if name not in ("client_mean_latency", "linked_requests"):
                print(f"    {name:38s} {value:10.1f}  {100 * value / latency:6.1f}%")
        check = result["attribution"]
        print(f"  attribution: named layers explain {100 * check['explained']:.1f}% of "
              f"the mean latency -> {'PASS' if check['ok'] else 'FAIL'} "
              f"(tolerance {100 * ATTRIBUTION_TOLERANCE:.0f}%)")
    for mismatch in result["mismatches"][:10]:
        print(f"  WRONG {mismatch}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if args.workload not in wl.SPECS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.SPECS)}")
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as source:
        layer_map = json.load(source)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        declared = json.load(source)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    os.makedirs(OUT_DIR, exist_ok=True)
    spec = wl.SPECS[args.workload]
    work = wl.Workload(spec, wl.make_inputs(spec, args.seed, args.size))
    tallies = []
    base = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    ticks_before = cpu_ticks()
    if args.trace:
        result = traced_run(work, args.seconds, tallies, base + "-spans.jsonl")
        breakdown = result["extra"]["breakdown_us_per_request"]
        latency = breakdown["client_mean_latency"]
        explained = 1.0 - breakdown["unattributed"] / latency if latency else 0.0
        result["attribution"] = {
            "explained": explained,
            "ok": abs(1.0 - explained) <= ATTRIBUTION_TOLERANCE,
        }
    else:
        result = untraced_run(work, args.seconds, tallies)
    ticks = [after - before for before, after in zip(ticks_before, cpu_ticks())]
    # Time the hypervisor gave the CPUs to other guests: a run with high
    # steal measured a slower machine.
    result["extra"]["cpu_steal_pct"] = 100.0 * ticks[7] / sum(ticks) if len(ticks) > 7 else None
    result["stamp"] = stamp(args, spec)
    result["mismatches"] = [f"{m.where}: {m.detail}" for tally in tallies
                            for m in tally.mismatches]
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    with open(base + ".json", "w", encoding="utf-8") as sink:
        json.dump(result, sink, indent=2, sort_keys=True)
    report(result, units, layer_map, tallies)
    correct = not result["mismatches"]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {
            name: {"value": result["metrics"][name], "unit": units[name]} for name in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
