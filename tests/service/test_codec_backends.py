"""Every registered backend must round-trip through the codec byte-for-byte.

This is the guard rail that catches the *next* backend: registering a policy
whose filters ``repro.service.codec`` cannot frame fails here immediately,
because parallel shard builds and snapshot/restore both depend on frames
(process workers hand finished shards back as codec bytes).

The contract checked per backend:

* ``dumps`` accepts the built filter (framable at all);
* ``dumps(loads(dumps(f))) == dumps(f)`` — decoding and re-encoding is the
  identity on bytes, so nothing is silently dropped or reordered;
* the revived filter answers every probe identically (zero false negatives
  preserved by construction).
"""

from __future__ import annotations

import pytest

from repro.service import codec
from repro.service.backends import available_backends, get_backend
from repro.service.shards import ShardedFilterStore
from repro.workloads.shalla import generate_shalla_like
from repro.workloads.zipf import assign_zipf_costs


@pytest.fixture(scope="module")
def dataset():
    return generate_shalla_like(num_positives=400, num_negatives=350, seed=17)


@pytest.fixture(scope="module")
def costs(dataset):
    return assign_zipf_costs(dataset.negatives, skewness=1.0, seed=17)


def _build(name, dataset, costs):
    return get_backend(name).create_filter(
        dataset.positives, negatives=dataset.negatives, costs=costs
    )


@pytest.mark.parametrize("name", available_backends())
def test_registered_backend_round_trips_byte_for_byte(name, dataset, costs):
    filt = _build(name, dataset, costs)
    frame = codec.dumps(filt)  # CodecError here = backend without codec support
    revived = codec.loads(frame)
    assert type(revived) is type(filt)
    assert codec.dumps(revived) == frame, (
        f"{name}: decode→re-encode changed the frame bytes"
    )
    probe = dataset.positives + dataset.negatives + [
        f"unseen-{name}-{i}" for i in range(300)
    ]
    assert [revived.contains(key) for key in probe] == [
        filt.contains(key) for key in probe
    ]
    assert all(revived.contains(key) for key in dataset.positives)


@pytest.mark.parametrize("name", available_backends())
def test_sharded_store_snapshots_with_every_backend(name, dataset, costs):
    _build(name, dataset, costs)  # numpy skip happens here, not mid-store
    store = ShardedFilterStore.build(
        dataset.positives,
        negatives=dataset.negatives,
        costs=costs,
        num_shards=3,
        backend=name,
    )
    frame = codec.dumps(store)
    revived = codec.loads(frame)
    assert codec.dumps(revived) == frame
    assert revived.backend_name == name
    assert revived.shard_fingerprints == store.shard_fingerprints
    probe = dataset.positives + dataset.negatives
    assert revived.query_many(probe) == store.query_many(probe)
