"""Generation-versioned membership serving with atomic hot-swap rebuilds.

A :class:`MembershipService` owns one immutable :class:`Snapshot` (a built
:class:`~repro.service.shards.ShardedFilterStore` plus its generation number)
and serves every query from it.  A rebuild constructs a *new* store off to
the side — the old snapshot keeps answering queries the whole time — and then
swaps the snapshot reference in one assignment.  Queries read the reference
once per call, so a query sees either the old generation or the new one in
full, never a half-built store.

The blacklist-gateway deployment the paper motivates maps directly onto this:
the blacklist is re-fetched periodically, a new generation is built from it,
and the gateway never stops filtering while that happens.

Network-concurrent callers should not talk to this class one key at a time:
:mod:`repro.service.aserve` wraps it in an asyncio front-end whose adaptive
micro-batcher coalesces concurrent scalar queries into :meth:`query_batch`
windows, converting the batch engine's speedup into serving throughput.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.errors import ServiceError
from repro.hashing import vectorized as vec
from repro.hashing.base import Key
from repro.metrics.memory import process_rss_bytes
from repro.metrics.timing import Stopwatch, latency_percentiles
from repro.obs import (
    CollectedFamily,
    FprEstimator,
    Registry,
    Sample,
    ShardFprEstimate,
    default_registry,
)
from repro.service import codec
from repro.service.adaptive import AdaptivePolicy, MigrationPlan
from repro.service.backends import BackendSpec
from repro.service.diskstore import DiskShardStore
from repro.service.shards import ShardedFilterStore
from repro.service.stats import AdaptiveStats, LatencyWindow, ServiceStats

#: Distinguishes service instances inside shared metric families: every
#: instance labels its children ``service="svc-<n>"`` so two services in one
#: process (or two hundred across a test run) never mix their counters.
_SERVICE_IDS = itertools.count(1)


@dataclass(frozen=True)
class Snapshot:
    """One immutable serving generation.

    Attributes:
        generation: Monotonically increasing version number (1 = first load).
        store: The sharded filter store answering this generation's queries.
        num_keys: Positive keys the store was built from.
        build_params: The backend spec and kwargs the store was built with,
            or ``None`` when unknown (e.g. installed from a codec snapshot).
            Incremental rebuilds only reuse clean shards when these match
            the service's current configuration — a shard built at 8
            bits/key must not survive into generations configured for 16.
    """

    generation: int
    store: ShardedFilterStore
    num_keys: int
    build_params: Optional[tuple] = None


@dataclass(frozen=True)
class BatchAnswer:
    """The result of one :meth:`MembershipService.query_batch` dispatch.

    The serving layer needs more than the verdict vector: the asyncio
    micro-batcher resolves every waiter in a flush window with the generation
    that actually answered, so callers can observe that their window never
    straddled a hot rebuild.

    Attributes:
        verdicts: One membership verdict per key, in input order.
        generation: The snapshot generation every verdict was answered from
            (read once per dispatch — a batch sees exactly one generation).
        elapsed_seconds: Wall-clock time the store spent on the batch.
    """

    verdicts: List[bool]
    generation: int
    elapsed_seconds: float

    def __len__(self) -> int:
        return len(self.verdicts)


class MembershipService:
    """Serves membership queries over a sharded, hot-rebuildable filter store.

    Args:
        backend: Filter backend for every shard — a registered name
            (``"habf"``, ``"f-habf"``, ``"bloom"``, ``"xor"``) or a
            FilterPolicy-like instance.
        num_shards: Number of shards per generation.
        max_batch_size: ``query_many`` batches larger than this are rejected
            with a :class:`~repro.errors.ServiceError` (and counted), so one
            malformed caller cannot stall the service.
        router_seed: Seed for the shard router (stable across generations, so
            placement — and therefore shard-level stats — stays comparable,
            and incremental rebuilds can diff shard fingerprints at all).
        latency_window: Number of recent per-key latency samples kept for the
            percentile report.
        build_workers: Default worker count for every build and rebuild
            (``None``/1 = sequential; see
            :meth:`~repro.service.shards.ShardedFilterStore.build`).  A
            per-call ``workers`` argument overrides it.
        registry: The :class:`~repro.obs.Registry` this service's counters,
            gauges and histograms live in (default: the process-global one).
            Instrument families are shared — each service only owns its
            ``service="svc-<n>"`` label children — and the registry also
            receives a weak scrape-time collector exporting per-shard
            counters and live FPR estimates.  Pass
            :func:`~repro.obs.null_registry` to disable instrumentation
            wholesale; note ``stats()`` counter fields then read zero (the
            latency windows still work).
        fpr_estimator: An optional :class:`~repro.obs.FprEstimator`; when
            attached, each rebuild re-registers the generation's build keys
            as its ground-truth oracle (unless a custom oracle was set), and
            — unless :attr:`~repro.obs.FprEstimator.auto_known_negatives`
            was cleared — the rebuild's negatives as its known-negative set
            (plus its costs, when given); the query paths feed it verdicts
            to shadow-sample.
        adaptive_policy: An optional
            :class:`~repro.service.adaptive.AdaptivePolicy`.  When
            installed, every :meth:`rebuild` scores the serving shards from
            the estimator's live evidence and migrates losing shards to the
            winning candidate backend as part of the same atomic generation
            swap.  Pair it with ``fpr_estimator`` — without live evidence
            the policy never migrates anything.
        store_path: When set, generations persist to a
            :class:`~repro.service.diskstore.DiskShardStore` at this path
            and queries are served from its ``mmap`` through a
            byte-budgeted LRU of decoded shards (the disk tier).  Each
            rebuild commits atomically — incremental rebuilds append only
            the dirty shards' frames — and the snapshot swap happens only
            after the commit, so the on-disk store and the serving
            generation never diverge.  An existing store at the path is
            reopened by the first :meth:`rebuild` (or explicitly via
            :meth:`open_store`) and served as the pre-rebuild generation.
        cache_budget: Byte budget for the disk tier's decoded-shard LRU
            (``None`` = unbounded, ``0`` = always cold).  Only valid with
            ``store_path``.
        backend_kwargs: Forwarded to the backend factory when ``backend`` is
            a name (e.g. ``bits_per_key=12.0``).
    """

    def __init__(
        self,
        backend: BackendSpec = "habf",
        num_shards: int = 4,
        max_batch_size: int = 65536,
        router_seed: int = 0,
        latency_window: int = 4096,
        build_workers: Optional[int] = None,
        registry: Optional[Registry] = None,
        fpr_estimator: Optional[FprEstimator] = None,
        adaptive_policy: Optional[AdaptivePolicy] = None,
        store_path=None,
        cache_budget: Optional[int] = None,
        **backend_kwargs,
    ) -> None:
        if num_shards < 1:
            raise ServiceError("num_shards must be at least 1")
        if max_batch_size < 1:
            raise ServiceError("max_batch_size must be at least 1")
        if cache_budget is not None and store_path is None:
            raise ServiceError("cache_budget requires store_path")
        self._backend = backend
        self._backend_kwargs = dict(backend_kwargs)
        self._num_shards = num_shards
        self._max_batch_size = max_batch_size
        self._router_seed = router_seed
        self._build_workers = build_workers
        self._snapshot: Optional[Snapshot] = None
        self._swap_lock = threading.Lock()
        # Generations under construction right now (any thread); guarded by
        # its own lock because concurrent rebuilds construct in parallel.
        self._building = 0
        self._building_lock = threading.Lock()
        self._latency = LatencyWindow(latency_window)
        self._rebuild_latency = LatencyWindow(128)
        self._registry = registry if registry is not None else default_registry()
        self._obs_label = f"svc-{next(_SERVICE_IDS)}"
        self._fpr = fpr_estimator
        self._adaptive = adaptive_policy
        self._store_path = store_path
        self._cache_budget = cache_budget
        self._disk: Optional[DiskShardStore] = None
        self._last_plan: Optional[MigrationPlan] = None
        self._started = time.monotonic()
        self._make_instruments()
        self._registry.add_collector(self._collect_shard_families)

    def _make_instruments(self) -> None:
        """Bind this instance's label children in the shared metric families."""
        registry, label = self._registry, self._obs_label
        self._queries = registry.counter(
            "repro_service_queries_total",
            "Keys tested, scalar and batch combined",
            ("service",),
        ).labels(label)
        self._batches = registry.counter(
            "repro_service_batches_total",
            "query_many/query_batch calls accepted",
            ("service",),
        ).labels(label)
        self._rejected_batches = registry.counter(
            "repro_service_rejected_batches_total",
            "Batch calls refused (empty or oversized)",
            ("service",),
        ).labels(label)
        self._positives = registry.counter(
            "repro_service_positives_total",
            "Membership tests answered present",
            ("service",),
        ).labels(label)
        self._rebuilds = registry.counter(
            "repro_service_rebuilds_total",
            "Completed hot rebuilds (generation swaps after the first load)",
            ("service",),
        ).labels(label)
        self._shards_rebuilt = registry.counter(
            "repro_service_shards_rebuilt_total",
            "Shards reconstructed across every build and rebuild",
            ("service",),
        ).labels(label)
        self._shards_skipped = registry.counter(
            "repro_service_shards_skipped_total",
            "Shards incremental rebuilds left untouched (clean fingerprints)",
            ("service",),
        ).labels(label)
        self._generation_gauge = registry.gauge(
            "repro_service_generation",
            "Generation currently serving (0 before the first load)",
            ("service",),
        ).labels(label)
        self._keys_gauge = registry.gauge(
            "repro_service_keys",
            "Positive keys in the serving snapshot",
            ("service",),
        ).labels(label)
        self._query_seconds = registry.histogram(
            "repro_query_seconds",
            "Per-key query latency; each batch contributes its per-key average once",
            ("service",),
        ).labels(label)
        self._rebuild_seconds = registry.histogram(
            "repro_rebuild_seconds",
            "Build/rebuild wall-clock duration, one observation per swap",
            ("service",),
        ).labels(label)
        if self._adaptive is not None:
            self._adaptive_evals = registry.counter(
                "repro_adaptive_evaluations_total",
                "Rebuilds on which the adaptive policy scored the shards",
                ("service",),
            ).labels(label)
            self._adaptive_migrated = registry.counter(
                "repro_adaptive_migrations_total",
                "Shard backend migrations applied by the adaptive policy",
                ("service",),
            ).labels(label)

    # ------------------------------------------------------------------ #
    # Loading and rebuilding
    # ------------------------------------------------------------------ #
    def _build_signature(self) -> tuple:
        """The comparable identity of this service's build configuration.

        A string backend compares by name; a policy instance compares by
        object equality (the same instance keeps matching, a restored or
        reconstructed one does not — conservatively forcing a full rebuild).
        """
        return (self._backend, tuple(sorted(self._backend_kwargs.items())))

    def _build_store(
        self,
        keys: Sequence[Key],
        negatives: Sequence[Key],
        costs: Optional[Mapping[Key, float]],
        workers: Optional[int],
        shard_backends: Optional[dict] = None,
    ) -> ShardedFilterStore:
        return ShardedFilterStore.build(
            keys,
            negatives=negatives,
            costs=costs,
            num_shards=self._num_shards,
            backend=self._backend,
            router_seed=self._router_seed,
            workers=workers,
            shard_backends=shard_backends,
            **self._backend_kwargs,
        )

    def _construct_generation(
        self,
        previous: Optional[Snapshot],
        keys: List[Key],
        negatives: List[Key],
        costs: Optional[Mapping[Key, float]],
        changed_keys: Optional[Sequence[Key]],
        incremental: bool,
        workers: Optional[int],
        shard_backends: Optional[dict] = None,
    ):
        """Build the next store, incrementally when the previous one allows it.

        Incremental reconstruction needs comparable shard placement (same
        shard count and router seed) and a previous generation *known* to be
        built with the service's exact backend configuration; otherwise —
        and on the first load — every shard is built.  (A snapshot installed
        via :meth:`install_snapshot` records no build parameters, so the
        first rebuild after a restore is always full.)  ``shard_backends``
        (an adaptive plan's assignments) overrides the backend per shard on
        either path; a shard whose planned backend differs from the one
        serving it counts dirty and rebuilds.
        """
        if incremental and previous is not None:
            store = previous.store
            if (
                store.num_shards == self._num_shards
                and store.router_seed == self._router_seed
                and previous.build_params is not None
                and previous.build_params == self._build_signature()
            ):
                return ShardedFilterStore.rebuild_from(
                    store,
                    keys,
                    negatives=negatives,
                    costs=costs,
                    backend=self._backend,
                    changed_keys=changed_keys,
                    workers=workers,
                    shard_backends=shard_backends,
                    **self._backend_kwargs,
                )
        full = self._build_store(keys, negatives, costs, workers, shard_backends)
        return full, list(range(full.num_shards)), []

    def load(
        self,
        keys: Sequence[Key],
        negatives: Sequence[Key] = (),
        costs: Optional[Mapping[Key, float]] = None,
        workers: Optional[int] = None,
    ) -> int:
        """Build the first generation and start serving; returns its number.

        On a service that is already serving this behaves exactly like
        :meth:`rebuild`.
        """
        return self.rebuild(keys, negatives=negatives, costs=costs, workers=workers)

    def rebuild(
        self,
        keys: Sequence[Key],
        negatives: Sequence[Key] = (),
        costs: Optional[Mapping[Key, float]] = None,
        changed_keys: Optional[Sequence[Key]] = None,
        incremental: bool = True,
        workers: Optional[int] = None,
    ) -> int:
        """Build a new generation from ``keys`` and atomically swap it in.

        The current snapshot keeps serving until the new store is fully
        built; the swap itself is a single reference assignment under a lock
        (the lock serialises concurrent rebuilds, not queries).

        By default the rebuild is *incremental*: the new key set is diffed
        against the serving snapshot's per-shard fingerprints and only dirty
        shards are reconstructed — with one shard's keys changed, the other
        shards swap over untouched (their per-shard generations do not move).
        ``changed_keys`` additionally forces the shards those keys route to
        (use it when only *negatives or costs* changed for some shard, which
        the positive-key diff cannot see).  ``incremental=False`` forces a
        full rebuild.  ``workers`` parallelises the dirty-shard builds
        (default: the service's ``build_workers``).

        With an :class:`~repro.service.adaptive.AdaptivePolicy` installed,
        the serving shards are scored *before* construction and losing
        shards are built on their winning backend — the migration is part of
        the same snapshot swap, so queries see the old generation in full
        until the instant they see the new one in full.

        Returns the new service generation.
        """
        keys = list(keys)
        negatives = list(negatives)
        if workers is None:
            workers = self._build_workers
        if (
            self._store_path is not None
            and self._disk is None
            and self._snapshot is None
            and DiskShardStore.exists(self._store_path)
        ):
            # A previous process committed generations here; serve them as
            # the pre-rebuild snapshot so the generation counter continues
            # (the rebuild itself is full — build params are not persisted).
            self.open_store()
        previous = self._snapshot
        plan: Optional[MigrationPlan] = None
        policy = self._adaptive
        if policy is not None and previous is not None:
            per_shard = previous.store.shard_stats()
            estimator = self._fpr
            estimates: Sequence[Optional[ShardFprEstimate]]
            if estimator is not None:
                estimates = estimator.estimates(per_shard)
            else:
                estimates = [None] * len(per_shard)
            plan = policy.plan(per_shard, estimates)
        watch = Stopwatch()
        with self._building_lock:
            self._building += 1
        try:
            with watch:
                store, rebuilt, skipped = self._construct_generation(
                    previous,
                    keys,
                    negatives,
                    costs,
                    changed_keys,
                    incremental,
                    workers,
                    shard_backends=plan.assignments if plan is not None else None,
                )
        finally:
            with self._building_lock:
                self._building -= 1
        with self._swap_lock:
            current = self._snapshot
            generation = current.generation + 1 if current else 1
            if self._store_path is not None:
                # Durability before visibility: the constructed store is
                # committed (incrementally — only the rebuilt shards'
                # frames are appended) and the swap serves the committed
                # epoch's lazy view, never the in-RAM construction.
                if self._disk is None:
                    self._disk = DiskShardStore.create(
                        self._store_path,
                        store,
                        generation,
                        cache_budget=self._cache_budget,
                        registry=self._registry,
                    )
                else:
                    self._disk.commit(store, generation, rebuilt_shards=rebuilt)
                store = self._disk.serving_store()
            self._snapshot = Snapshot(
                generation=generation,
                store=store,
                num_keys=len(keys),
                build_params=self._build_signature(),
            )
            if current is not None:
                self._rebuilds.inc()
            self._shards_rebuilt.inc(len(rebuilt))
            self._shards_skipped.inc(len(skipped))
            self._rebuild_latency.record(watch.seconds)
            self._rebuild_seconds.observe(watch.seconds)
            self._generation_gauge.set(generation)
            self._keys_gauge.set(len(keys))
            if plan is not None:
                self._last_plan = plan
                self._adaptive_evals.inc()
                if plan.migrations:
                    self._adaptive_migrated.inc(len(plan.migrations))
        estimator = self._fpr
        if estimator is not None:
            if estimator.auto_oracle:
                estimator.set_key_oracle(keys)
            if estimator.auto_known_negatives:
                estimator.set_known_negatives(negatives)
                if costs is not None:
                    estimator.set_costs(costs)
            if plan is not None and plan.migrations:
                # Accumulated evidence on migrated shards describes the
                # previous backend; fresh samples must re-qualify the shard
                # before it can move again (flap damping).
                estimator.reset_shards(plan.migrations)
        return generation

    def open_store(self) -> int:
        """Open the existing on-disk store and serve its committed generation.

        Requires ``store_path``; the snapshot generation becomes the disk
        store's committed generation (it must move the service forward).
        Returns that generation.  :meth:`rebuild` calls this automatically
        when it finds a committed store at a fresh service's path.
        """
        if self._store_path is None:
            raise ServiceError("open_store() requires store_path")
        disk = DiskShardStore.open(
            self._store_path,
            cache_budget=self._cache_budget,
            registry=self._registry,
        )
        store = disk.serving_store()
        with self._swap_lock:
            previous = self._snapshot
            generation = disk.generation
            if previous is not None and generation <= previous.generation:
                disk.close()
                raise ServiceError(
                    f"on-disk generation {generation} does not move the "
                    f"service forward (serving {previous.generation})"
                )
            old_disk, self._disk = self._disk, disk
            self._num_shards = store.num_shards
            self._router_seed = store.router_seed
            self._snapshot = Snapshot(
                generation=generation,
                store=store,
                num_keys=store.num_keys(),
            )
            if previous is not None:
                self._rebuilds.inc()
            self._generation_gauge.set(generation)
            self._keys_gauge.set(store.num_keys())
        if old_disk is not None and old_disk is not disk:
            old_disk.close()
        return generation

    @property
    def disk_store(self) -> Optional[DiskShardStore]:
        """The disk tier backing this service, or ``None`` (RAM mode)."""
        return self._disk

    def install_snapshot(
        self,
        store: ShardedFilterStore,
        num_keys: Optional[int] = None,
        generation: Optional[int] = None,
        rebuilt_shards: Optional[Sequence[int]] = None,
    ) -> int:
        """Swap in an externally built (e.g. codec-loaded) store.

        The service adopts the store's shard count and router seed so that a
        later :meth:`rebuild` produces comparable shard placement instead of
        silently reverting to the constructor's geometry.

        ``generation`` pins the installed snapshot to an externally assigned
        version instead of the local ``previous + 1`` counter.  Replica
        processes serving a :class:`~repro.service.multiproc.SharedFrameArena`
        use this so every replica answers with the *builder's* generation
        number — the property that lets a dispatcher assert no window ever
        mixes generations across replicas.  It must move forward.

        ``rebuilt_shards`` is dirty-shard provenance for the disk tier: when
        the caller knows exactly which shards differ from the committed
        store (a replication delta does), disk mode commits incrementally —
        only those shards' frames are appended — instead of rewriting every
        shard.  RAM mode ignores it.
        """
        with self._swap_lock:
            previous = self._snapshot
            if generation is None:
                generation = previous.generation + 1 if previous else 1
            elif previous is not None and generation <= previous.generation:
                raise ServiceError(
                    f"snapshot generation must move forward: {generation} <= "
                    f"current {previous.generation}"
                )
            if self._store_path is not None:
                # Same durability contract as rebuild(): persist first, then
                # serve the committed epoch's view.  Without provenance the
                # commit is full; a delta apply passes its dirty set through.
                if self._disk is None:
                    self._disk = DiskShardStore.create(
                        self._store_path,
                        store,
                        generation,
                        cache_budget=self._cache_budget,
                        registry=self._registry,
                    )
                else:
                    self._disk.commit(store, generation, rebuilt_shards=rebuilt_shards)
                if num_keys is None:
                    num_keys = store.num_keys()
                store = self._disk.serving_store()
            self._num_shards = store.num_shards
            self._router_seed = store.router_seed
            self._snapshot = Snapshot(
                generation=generation,
                store=store,
                num_keys=store.num_keys() if num_keys is None else num_keys,
            )
            if previous is not None:
                self._rebuilds.inc()
            self._generation_gauge.set(generation)
            self._keys_gauge.set(store.num_keys() if num_keys is None else num_keys)
        return generation

    def apply_snapshot_delta(self, delta) -> int:
        """Apply a replication delta (or its encoded bytes); returns the generation.

        Convenience front door to :func:`repro.service.replication.\
apply_to_service`: validates the delta against the serving snapshot,
        assembles the successor store (decoding only the dirty shards), and
        swaps it in through :meth:`install_snapshot` — incrementally
        committed in disk mode.
        """
        from repro.service import replication

        return replication.apply_to_service(self, delta)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _serving_snapshot(self) -> Snapshot:
        snapshot = self._snapshot
        if snapshot is None:
            raise ServiceError("the service has no snapshot yet; call load() first")
        return snapshot

    def query(self, key: Key) -> bool:
        """Membership test against the current generation."""
        snapshot = self._serving_snapshot()
        start = time.perf_counter()
        answer = snapshot.store.query(key)
        elapsed = time.perf_counter() - start
        self._queries.inc()
        if answer:
            self._positives.inc()
            estimator = self._fpr
            if estimator is not None and estimator.active:
                estimator.observe(key, True, snapshot.store.shard_of(key))
        self._latency.record(elapsed)
        self._query_seconds.observe(elapsed)
        return answer

    def query_many(self, keys: Sequence[Key]) -> List[bool]:
        """Batch membership test against the current generation, in input order.

        Raises:
            ServiceError: for empty or oversized batches (counted in
                ``rejected_batches``); the service state is unchanged.
        """
        return self.query_batch(keys).verdicts

    def query_batch(self, keys: "vec.BatchLike") -> BatchAnswer:
        """Like :meth:`query_many`, but reports which generation answered.

        This is the dispatch point of the asyncio front-end
        (:mod:`repro.service.aserve`): the snapshot reference is read exactly
        once, so the whole batch is answered by one generation even if a hot
        rebuild swaps the snapshot mid-flight.  ``keys`` may be an
        already-encoded :class:`~repro.hashing.vectorized.KeyBatch` (the
        micro-batcher encodes its flush window up front and the encoding is
        reused all the way down to the shard filters).

        Raises:
            ServiceError: for empty or oversized batches (counted in
                ``rejected_batches``); the service state is unchanged.
        """
        if not isinstance(keys, vec.KeyBatch):
            keys = list(keys)
        if not len(keys) or len(keys) > self._max_batch_size:
            self._rejected_batches.inc()
            raise ServiceError(
                f"batch of {len(keys)} keys rejected; accepted sizes are "
                f"1..{self._max_batch_size}"
            )
        snapshot = self._serving_snapshot()
        start = time.perf_counter()
        answers = snapshot.store.query_many(keys)
        elapsed = time.perf_counter() - start
        positives = sum(answers)
        self._queries.inc(len(keys))
        self._batches.inc()
        if positives:
            self._positives.inc(positives)
        per_key = elapsed / len(keys)
        self._latency.record(per_key)
        self._query_seconds.observe(per_key)
        estimator = self._fpr
        if positives and estimator is not None and estimator.active:
            if isinstance(keys, vec.KeyBatch):
                raw = keys.keys
                # Memoised on the batch: query_many's router pass is reused.
                shards = snapshot.store.shards_of_many(keys)
            else:
                raw, shards = keys, None
            estimator.observe_batch(
                raw, answers, snapshot.store.shard_of, shards=shards
            )
        return BatchAnswer(
            verdicts=answers, generation=snapshot.generation, elapsed_seconds=elapsed
        )

    def __contains__(self, key: Key) -> bool:
        return self.query(key)

    # ------------------------------------------------------------------ #
    # Introspection and persistence
    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        """Generation currently serving (0 before the first load)."""
        snapshot = self._snapshot
        return snapshot.generation if snapshot else 0

    @property
    def constructions_in_flight(self) -> int:
        """Generations :meth:`rebuild` (or :meth:`load`) is building right now.

        Construction is CPU work that needs the GIL; the asyncio front-end
        reads this to keep its dispatches off the event-loop thread while a
        build runs beside it (see :mod:`repro.service.aserve`).
        """
        return self._building

    @property
    def max_batch_size(self) -> int:
        """Largest batch :meth:`query_many`/:meth:`query_batch` accepts."""
        return self._max_batch_size

    @property
    def snapshot(self) -> Optional[Snapshot]:
        """The current serving snapshot, or ``None`` before the first load."""
        return self._snapshot

    @property
    def registry(self) -> Registry:
        """The metrics registry this service reports to."""
        return self._registry

    @property
    def fpr_estimator(self) -> Optional[FprEstimator]:
        """The attached live-FPR estimator, or ``None``."""
        return self._fpr

    @property
    def adaptive_policy(self) -> Optional[AdaptivePolicy]:
        """The installed adaptive backend-selection policy, or ``None``."""
        return self._adaptive

    @property
    def last_migration_plan(self) -> Optional[MigrationPlan]:
        """The most recent adaptive evaluation's plan, or ``None``."""
        return self._last_plan

    def fpr_estimates(self) -> List[ShardFprEstimate]:
        """Per-shard live FPR estimates (empty without estimator/snapshot)."""
        snapshot = self._snapshot
        if self._fpr is None or snapshot is None:
            return []
        return self._fpr.estimates(snapshot.store.shard_stats())

    def stats(self) -> ServiceStats:
        """A point-in-time snapshot read from the registry instruments.

        The dataclass shape predates the telemetry layer and is kept
        exactly; the numbers now come from this instance's label children
        in the shared metric families (so ``stats()`` and ``GET /metrics``
        can never disagree).  Scalar queries contribute true per-key
        samples; each accepted batch contributes its per-key *average* as
        one sample, so tail figures reflect scalar calls and batch-level
        behaviour, not per-key tails inside a batch (measuring those would
        require timing every key and defeat batching).
        """
        snapshot = self._snapshot
        samples = self._latency.samples()
        rebuild_samples = self._rebuild_latency.samples()
        adaptive: Optional[AdaptiveStats] = None
        if self._adaptive is not None:
            plan = self._last_plan
            adaptive = AdaptiveStats(
                evaluations=int(self._adaptive_evals.value),
                migrations=int(self._adaptive_migrated.value),
                last_migrated=list(plan.migrations) if plan is not None else [],
                shard_backends=(
                    snapshot.store.shard_backend_names if snapshot else []
                ),
            )
        return ServiceStats(
            generation=snapshot.generation if snapshot else 0,
            num_keys=snapshot.num_keys if snapshot else 0,
            queries=int(self._queries.value),
            batches=int(self._batches.value),
            rejected_batches=int(self._rejected_batches.value),
            positives=int(self._positives.value),
            rebuilds=int(self._rebuilds.value),
            shards_rebuilt=int(self._shards_rebuilt.value),
            shards_skipped=int(self._shards_skipped.value),
            shards=snapshot.store.shard_stats() if snapshot else [],
            latency=latency_percentiles(samples) if samples else None,
            rebuild_latency=(
                latency_percentiles(rebuild_samples) if rebuild_samples else None
            ),
            adaptive=adaptive,
            uptime_seconds=time.monotonic() - self._started,
            rss_bytes=process_rss_bytes(),
        )

    def _collect_shard_families(self) -> List[CollectedFamily]:
        """Scrape-time export of per-shard counters and live FPR estimates.

        Registered on the registry as a weak collector: the families are a
        *live view* of the serving snapshot's :class:`ShardStats` (they
        reset when a rebuild swaps the store — an ordinary counter reset to
        Prometheus), and a garbage-collected service drops out of scrapes.
        """
        snapshot = self._snapshot
        if snapshot is None:
            return []
        base = (("service", self._obs_label),)
        per_shard = snapshot.store.shard_stats()

        def family(name, kind, help, value_of):
            return CollectedFamily(
                name=name,
                kind=kind,
                help=help,
                samples=tuple(
                    Sample("", base + (("shard", str(stats.shard)),), float(value_of(stats)))
                    for stats in per_shard
                ),
            )

        families = [
            family(
                "repro_shard_keys",
                "gauge",
                "Positive keys routed to each shard at build time",
                lambda s: s.num_keys,
            ),
            family(
                "repro_shard_queries_total",
                "counter",
                "Membership tests answered per shard (resets on rebuild)",
                lambda s: s.queries,
            ),
            family(
                "repro_shard_positives_total",
                "counter",
                "Tests answered present per shard (resets on rebuild)",
                lambda s: s.positives,
            ),
            family(
                "repro_shard_size_bits",
                "gauge",
                "Serialized filter size per shard",
                lambda s: s.size_in_bits,
            ),
            family(
                "repro_shard_generation",
                "gauge",
                "Per-shard rebuild generation",
                lambda s: s.generation,
            ),
        ]
        estimator = self._fpr
        if estimator is not None and estimator.active:
            estimates = estimator.estimates(per_shard)
            sampled = []
            false_positives = []
            observed = []
            cost_weighted = []
            for estimate in estimates:
                labels = base + (("shard", str(estimate.shard)),)
                sampled.append(Sample("", labels, float(estimate.sampled)))
                false_positives.append(Sample("", labels, float(estimate.false_positives)))
                if estimate.observed_fpr is not None:
                    observed.append(Sample("", labels, estimate.observed_fpr))
                if estimate.cost_weighted_fpr is not None:
                    cost_weighted.append(Sample("", labels, estimate.cost_weighted_fpr))
            families.extend(
                [
                    CollectedFamily(
                        "repro_shard_fpr_sampled_total",
                        "counter",
                        "Positive verdicts shadow-checked against the oracle",
                        tuple(sampled),
                    ),
                    CollectedFamily(
                        "repro_shard_fpr_false_positives_total",
                        "counter",
                        "Shadow-checked verdicts the oracle rejected",
                        tuple(false_positives),
                    ),
                    CollectedFamily(
                        "repro_shard_observed_fpr",
                        "gauge",
                        "Extrapolated live false-positive rate per shard",
                        tuple(observed),
                    ),
                    CollectedFamily(
                        "repro_shard_cost_weighted_fpr",
                        "gauge",
                        "Cost-weighted live false-positive rate per shard (Eq. 1/20)",
                        tuple(cost_weighted),
                    ),
                ]
            )
        if self._adaptive is not None:
            families.append(
                CollectedFamily(
                    "repro_adaptive_shard_backend",
                    "gauge",
                    "Backend serving each shard (info-style: value is always 1)",
                    tuple(
                        Sample(
                            "",
                            base
                            + (
                                ("shard", str(stats.shard)),
                                ("backend", stats.backend),
                            ),
                            1.0,
                        )
                        for stats in per_shard
                    ),
                )
            )
            plan = self._last_plan
            if plan is not None:
                score_samples = []
                for score in plan.scores:
                    for name in sorted(score.scores):
                        score_samples.append(
                            Sample(
                                "",
                                base
                                + (
                                    ("shard", str(score.shard)),
                                    ("backend", name),
                                ),
                                score.scores[name],
                            )
                        )
                families.append(
                    CollectedFamily(
                        "repro_adaptive_score",
                        "gauge",
                        "Composite score per shard and candidate backend at "
                        "the last adaptive evaluation (higher is better)",
                        tuple(score_samples),
                    )
                )
        return families

    def save_snapshot(self, path) -> int:
        """Serialize the serving store to ``path``; returns bytes written.

        In disk mode the lazy epoch view cannot cross the codec; the disk
        store materializes every shard into plain filters first, so the
        written frame is identical to what a RAM-mode service would save.
        """
        store = self._serving_snapshot().store
        if self._disk is not None:
            store = self._disk.materialize()
        return codec.dump(store, path)

    @classmethod
    def from_snapshot(
        cls,
        path,
        backend: BackendSpec = "habf",
        max_batch_size: int = 65536,
        latency_window: int = 4096,
        registry: Optional[Registry] = None,
        fpr_estimator: Optional[FprEstimator] = None,
        adaptive_policy: Optional[AdaptivePolicy] = None,
        **backend_kwargs,
    ) -> "MembershipService":
        """Start a service from a codec snapshot written by :meth:`save_snapshot`.

        ``backend`` only matters for later :meth:`rebuild` calls; the loaded
        generation serves exactly the filters in the snapshot.
        """
        store = codec.load(path)
        if not isinstance(store, ShardedFilterStore):
            raise ServiceError(
                f"snapshot at {path!s} holds {type(store).__name__}, "
                "expected a ShardedFilterStore frame"
            )
        service = cls(
            backend=backend,
            num_shards=store.num_shards,
            max_batch_size=max_batch_size,
            router_seed=store.router_seed,
            latency_window=latency_window,
            registry=registry,
            fpr_estimator=fpr_estimator,
            adaptive_policy=adaptive_policy,
            **backend_kwargs,
        )
        service.install_snapshot(store)
        return service

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        snapshot = self._snapshot
        return (
            f"MembershipService(generation={snapshot.generation if snapshot else 0}, "
            f"shards={self._num_shards}, backend={self._backend!r})"
        )
