"""Seeded inputs for the three workloads, and their pre-encoded requests.

Everything the server receives is generated here from ``--seed``: the
positive keys, the trained (known) negatives with their Zipf costs, the
held-out negatives the accuracy sweep probes, and a pool of new positives
that rebuilds add a few at a time.  Request bytes are encoded before any
timing starts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.service import MembershipService
from repro.workloads import generate_shalla_like
from repro.workloads.zipf import assign_zipf_costs

#: Zipf skewness of the trained negatives' costs (the paper sweeps 0–3).
ZIPF_SKEW = 1.0
#: Keys per multi-key request: the window size the batcher produces.
BATCH_KEYS = 64
#: Keys per request of the accuracy sweep (above the batcher's max_batch,
#: so sweep requests bypass the coalescing queue).
SWEEP_KEYS = 1024
#: New positives each pushed rebuild adds (so only a few shards go dirty).
NEW_PER_REBUILD = 3
#: Rebuilds a run may push at most (sizes the new-positive pool).
MAX_REBUILDS = 400


@dataclass(frozen=True)
class Spec:
    name: str
    backend: str
    shards: int
    protocol: str  # "tcp" or "http"
    keys_per_request: int
    costed: bool = False  # send Zipf costs and push rebuilds beside reads


SPECS = {
    spec.name: spec
    for spec in (
        Spec("point_tcp", "bloom-dh", 4, "tcp", 1),
        Spec("batch_http", "bloom-dh", 4, "http", BATCH_KEYS),
        Spec("costed_rebuild", "habf", 16, "tcp", BATCH_KEYS, costed=True),
    )
}

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` keeps the
#: smoke test fast.
SIZES = {
    "full": {"positives": 12_000, "trained": 6_000, "held_out": 100_000},
    "tiny": {"positives": 600, "trained": 300, "held_out": 1_200},
}


@dataclass
class Inputs:
    spec: Spec
    positives: List[str]
    new_positives: List[str]  # MAX_REBUILDS batches of NEW_PER_REBUILD
    trained: List[str]
    costs: Dict[str, float]
    held_out: List[str]
    probe: List[str]  # keys the timed phase cycles through

    def new_batch(self, rebuild: int) -> List[str]:
        """The positives the ``rebuild``-th pushed rebuild (1-based) adds."""
        start = (rebuild - 1) * NEW_PER_REBUILD
        return self.new_positives[start : start + NEW_PER_REBUILD]

    def is_positive(self, key: str) -> bool:
        """Whether ``key`` is an initial positive or one a rebuild adds."""
        return key in self._added

    def added_in(self, key: str) -> int:
        """Rebuild number that adds ``key`` (0 for an initial positive)."""
        return self._added[key]

    def keys_after(self, rebuilds: int) -> List[str]:
        return self.positives + self.new_positives[: rebuilds * NEW_PER_REBUILD]

    def rebuild_body(self, rebuilds: int) -> bytes:
        """JSON spec of the generation after ``rebuilds`` pushed rebuilds.

        Assembled from pre-encoded pieces, so no JSON encoding happens on
        the timed path.
        """
        head, tail, new_parts = self._rebuild_parts
        return b"".join([head, *new_parts[:rebuilds], tail])

    def __post_init__(self) -> None:
        self._added = {key: 0 for key in self.positives}
        for index, key in enumerate(self.new_positives):
            self._added[key] = index // NEW_PER_REBUILD + 1

        def items(keys: Sequence[str]) -> bytes:
            return json.dumps(list(keys))[1:-1].encode()

        tail = {"negatives": self.trained}
        if self.spec.costed:
            tail["costs"] = self.costs
        self._rebuild_parts = (
            b'{"keys": [' + items(self.positives),
            b"], " + json.dumps(tail)[1:].encode(),
            [b", " + items(self.new_batch(r)) for r in range(1, MAX_REBUILDS + 1)],
        )


def make_inputs(spec: Spec, seed: int, size: str = "full") -> Inputs:
    sizes = SIZES[size]
    pool = MAX_REBUILDS * NEW_PER_REBUILD
    dataset = generate_shalla_like(
        num_positives=sizes["positives"] + pool,
        num_negatives=sizes["trained"] + sizes["held_out"],
        seed=seed,
    )
    positives = dataset.positives[: sizes["positives"]]
    new_positives = dataset.positives[sizes["positives"] :]
    trained = dataset.negatives[: sizes["trained"]]
    held_out = dataset.negatives[sizes["trained"] :]
    costs = assign_zipf_costs(trained, ZIPF_SKEW, seed=seed)
    rng = random.Random(seed ^ 0x5EED)
    if spec.costed:
        # The paper's setting: reads probe the costed (known) negatives, plus
        # positives and the new positives rebuilds will add.
        probe = trained + positives[: len(trained) // 2] + new_positives
    else:
        half = len(positives)
        probe = held_out[:half] + positives
    rng.shuffle(probe)
    return Inputs(spec, positives, new_positives, trained, costs, held_out, probe)


# --------------------------------------------------------------------- #
# Request encoding
# --------------------------------------------------------------------- #
def chunks(keys: Sequence[str], size: int) -> List[List[str]]:
    return [list(keys[i : i + size]) for i in range(0, len(keys), size)]


def tcp_request(keys: Sequence[str]) -> bytes:
    if len(keys) == 1:
        return f"Q {keys[0]}\n".encode()
    return ("M " + " ".join(keys) + "\n").encode()


def http_request(method: str, path: str, body: bytes) -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
        f"Connection: keep-alive\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def query_many_request(keys: Sequence[str]) -> bytes:
    return http_request("POST", "/query_many", "\n".join(keys).encode())


# --------------------------------------------------------------------- #
# The timed phase's requests and their expected replies
# --------------------------------------------------------------------- #
class Workload:
    """A workload's inputs, its pre-encoded requests and the reply checks."""

    def __init__(self, spec: Spec, inputs: Inputs) -> None:
        self.spec, self.inputs = spec, inputs
        groups = (
            [[key] for key in inputs.probe]
            if spec.keys_per_request == 1
            else chunks(inputs.probe, spec.keys_per_request)
        )
        verdicts = dict(zip(inputs.probe, answer(reference(spec, inputs, 0), inputs.probe)))
        self.groups = groups
        self.verdicts = [[verdicts[key] for key in group] for group in groups]
        if spec.protocol == "tcp":
            self.requests = [(tcp_request(group), len(group)) for group in groups]
            self.expected = [
                b"V 1 " + b" ".join(b"1" if v else b"0" for v in row) for row in self.verdicts
            ]
        else:
            self.requests = [(query_many_request(group), len(group)) for group in groups]
            self.expected = [
                json.dumps({"members": row, "generation": 1}).encode() for row in self.verdicts
            ]
        # Positions that must answer 1, with the generation they join at.
        self.members = [
            [(pos, 1 + inputs.added_in(key)) for pos, key in enumerate(group)
             if inputs.is_positive(key)]
            for group in groups
        ]

    def make_check(self):
        """A fresh reply check for one connection (it tracks the generation)."""
        expected, verdicts, members, groups = (
            self.expected, self.verdicts, self.members, self.groups)
        rebuilds_beside_reads = self.spec.costed
        if self.spec.protocol == "http":

            def check_http(reply: bytes, i: int):
                if reply == expected[i]:
                    return None
                try:
                    body = json.loads(reply)
                except ValueError:
                    return f"malformed reply {reply[:80]!r}"
                if body.get("generation") == 1 and body.get("members") == verdicts[i]:
                    return None
                return f"reply {reply[:80]!r} differs from the reference {expected[i][:80]!r}"

            return check_http
        last = [0]

        def check_line(reply: bytes, i: int):
            parts = reply.split()
            if len(parts) < 3 or parts[0] != b"V":
                return f"malformed reply {reply[:80]!r}"
            generation = int(parts[1])
            if generation < last[0]:
                return f"generation went back from {last[0]} to {generation}"
            last[0] = generation
            if generation == 1 or not rebuilds_beside_reads:
                if reply == expected[i]:
                    return None
                return f"reply {reply[:80]!r} differs from the reference {expected[i][:80]!r}"
            answers = parts[2:]
            if len(answers) != len(groups[i]):
                return f"{len(answers)} verdicts for {len(groups[i])} keys"
            for pos, member_from in members[i]:
                if generation >= member_from and answers[pos] != b"1":
                    return f"false negative for {groups[i][pos]!r} at generation {generation}"
            return None

        return check_line


def reference(spec: Spec, inputs: Inputs, rebuilds: int) -> MembershipService:
    """An in-process service built from the same inputs as the server's."""
    service = MembershipService(backend=spec.backend, num_shards=spec.shards)
    service.load(
        inputs.keys_after(rebuilds),
        inputs.trained,
        costs=inputs.costs if spec.costed else None,
    )
    return service


def answer(service: MembershipService, keys: Sequence[str]) -> List[bool]:
    cap = service.max_batch_size
    out = []
    for start in range(0, len(keys), cap):
        out.extend(service.query_many(keys[start : start + cap]))
    return out
