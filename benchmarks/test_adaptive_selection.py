"""Benchmark: workload-adaptive backend selection vs every static choice.

Not a paper figure — this gates the adaptive serving tier.  The four
built-in streaming scenarios (:func:`repro.scenarios.builtin_scenarios`)
are replayed against four service configurations: one adaptive service
(xor everywhere at load — the best *analytic* static choice at this
budget — plus a live FPR estimator and a migration policy over
bloom/xor/habf), and a static single-backend service per candidate.
Every replay goes through the asyncio micro-batcher with concurrent
clients, and the harness scores it against ground truth it holds itself.

The headline gate: on total FPR-cost the adaptive service must beat
**every** static configuration in at least two of the four scenarios.
The honest scenario (``key_churn``: no shard-locality to exploit) is
where adaptation is allowed to lose — the gate checks it never loses by
much more than the estimator's sampling overhead costs.

``BENCH_adaptive.json`` records per-scenario FPR-cost, throughput,
migrations and final per-shard backends for every configuration, plus
the replay seed and environment, so the whole table is reproducible.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.metrics.benchmeta import bench_environment
from repro.obs import FprEstimator, Registry
from repro.scenarios import builtin_scenarios, run_scenario
from repro.service import MembershipService
from repro.service.adaptive import AdaptivePolicy, BackendCandidate, BackendScorer

SEED = 1
NUM_SHARDS = 8
BITS_PER_KEY = 10.0
SCALE = 1.0
STATIC_BACKENDS = ("bloom", "xor", "habf")
#: The adaptive service must beat every static config in this many scenarios.
REQUIRED_WINS = 2

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_adaptive.json"

pytestmark = pytest.mark.scenario


def _candidates():
    return [
        BackendCandidate(name, {"bits_per_key": BITS_PER_KEY})
        for name in STATIC_BACKENDS
    ]


def _adaptive_service():
    return MembershipService(
        backend="xor",
        num_shards=NUM_SHARDS,
        bits_per_key=BITS_PER_KEY,
        registry=Registry(),
        fpr_estimator=FprEstimator(sample_rate=1.0, rng=random.Random(SEED)),
        adaptive_policy=AdaptivePolicy(
            _candidates(), scorer=BackendScorer(min_sampled=120)
        ),
    )


def _static_service(backend):
    return MembershipService(
        backend=backend,
        num_shards=NUM_SHARDS,
        bits_per_key=BITS_PER_KEY,
        registry=Registry(),
    )


@pytest.fixture(scope="module")
def report():
    """Replay every scenario under every configuration; write the report."""
    rows = []
    for scenario in builtin_scenarios(seed=SEED, num_shards=NUM_SHARDS, scale=SCALE):
        configs = {"adaptive": _adaptive_service()}
        configs.update(
            {backend: _static_service(backend) for backend in STATIC_BACKENDS}
        )
        for config_name, service in configs.items():
            result = run_scenario(service, scenario)
            rows.append({"config": config_name, **result.to_dict()})
    full = {
        "benchmark": "adaptive_backend_selection",
        "environment": bench_environment(
            seed=SEED,
            num_shards=NUM_SHARDS,
            bits_per_key=BITS_PER_KEY,
            scale=SCALE,
            candidates=list(STATIC_BACKENDS),
        ),
        "results": rows,
    }
    RESULT_PATH.write_text(json.dumps(full, indent=2) + "\n")
    return full


def _by_scenario(report):
    table = {}
    for row in report["results"]:
        table.setdefault(row["scenario"], {})[row["config"]] = row
    return table


def test_adaptive_beats_every_static_config_in_enough_scenarios(report):
    table = _by_scenario(report)
    assert len(table) == 4
    wins = [
        name
        for name, configs in table.items()
        if all(
            configs["adaptive"]["fpr_cost"] < configs[backend]["fpr_cost"]
            for backend in STATIC_BACKENDS
        )
    ]
    assert len(wins) >= REQUIRED_WINS, (
        f"adaptive won only {wins!r} out of {sorted(table)} "
        f"(needs {REQUIRED_WINS})"
    )


def test_no_configuration_ever_returns_a_false_negative(report):
    for row in report["results"]:
        assert row["false_negatives"] == 0, (
            f"{row['config']} leaked false negatives in {row['scenario']}"
        )


def test_adaptive_migrations_happen_and_land_where_claimed(report):
    table = _by_scenario(report)
    adversarial = table["adversarial_negatives"]["adaptive"]
    assert adversarial["migrations"] > 0
    # Migrations target the flooded half of the shard space; the clean half
    # keeps the analytic best (xor) because unseen misses give a
    # negative-aware backend nothing to suppress.
    assert "habf" in adversarial["shard_backends"][: NUM_SHARDS // 2]
    assert adversarial["shard_backends"][NUM_SHARDS // 2 :] == (
        ["xor"] * (NUM_SHARDS // 2)
    )
    for backend in STATIC_BACKENDS:
        assert table["adversarial_negatives"][backend]["migrations"] == 0


def test_report_records_seeds_and_environment(report):
    environment = report["environment"]
    assert environment["seed"] == SEED
    assert environment["num_shards"] == NUM_SHARDS
    assert environment["python"]
    for row in report["results"]:
        assert row["seed"] == SEED
        assert row["throughput_qps"] > 0
    assert json.loads(RESULT_PATH.read_text())["results"]
