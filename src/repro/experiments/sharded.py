"""Sharded single-world execution with epoch-barrier feedback exchange.

:mod:`repro.experiments.parallel` scales *across* worlds: every trial
is independent, so processes never talk.  This module scales *one*
world: consumers are deterministically partitioned over N shard
processes, each shard runs select-invoke-rate rounds on its own sim
kernel for a fixed epoch, and shards exchange feedback only at the
epoch barrier as canonical :class:`~repro.store.EventStore` deltas.
The hard contract mirrors the parallel layer's:

    ``1 shard == 2 shards == 8 shards``, byte for byte.

Four design rules enforce it:

* **Hash partitioning, not enumeration order.**  Consumer *i* lives on
  ``shard_of(shard_consumer_id(i), N)`` — a pure function of the id
  via :func:`repro.p2p.hashing.stable_hash`, so the owner of any agent
  is computable by every process without coordination.  For a
  power-of-two shard count the partition coincides with the P-Grid
  key-space split: ``shard_of(e, 2**d) == int(shard_path(e, d), 2)``.
* **Frozen-score epochs (BSP).**  Rankings inside an epoch use the
  reputation scores broadcast at the epoch start; new feedback is
  buffered in a per-shard delta store and applied only at the barrier.
  No shard ever observes mid-epoch feedback, so results cannot depend
  on which shard produced a row first.
* **Canonical merge order.**  The coordinator merges delta stores in
  shard-index order (a list, never a set), then re-sorts rows by the
  ``(round, consumer index)`` key columns every delta carries.  The
  merged row order — and therefore every interner code and
  ``canonical_bytes()`` — equals what the 1-shard run appends
  directly.
* **Keyed counter-based draws.**  Each shard runs its rounds through
  the vectorized kernel of :mod:`repro.experiments.rounds`, whose
  policy/invocation/rating draws are Philox4x64-10 keyed by (world
  key, consumer index) with the round as counter
  (:mod:`repro.common.philox`).  A consumer's draws depend only on who
  it is and which round it is, so its trajectory given the broadcast
  scores is identical no matter which shard hosts it, or which other
  consumers share its block.

Feedback crossing the barrier is the store row ``(rater, target,
overall rating, int64 tick)``; the kernel keeps no facet detail and
no interaction, so context factors that need the interaction (e.g.
PeerTrust's transaction factor) see the neutral 1.0 on *every* shard
count, including 1.  The coordinator merges code columns — one
:meth:`~repro.store.EventStore.extend_coded` into the global store and
one ``record_columns`` into the model — without rebuilding a
:class:`~repro.common.records.Feedback` per row.

Telemetry is split so the invariant stays checkable: the canonical
:class:`~repro.obs.trace.TelemetrySnapshot` (epoch spans, row
counters, the coordinator's Figure-2 ledger) never mentions the shard
count, while everything N-dependent — per-shard loads, cross-shard
feedback traffic, exchange-protocol messages, wall time — lives in the
separate :class:`ShardDispatchReport`.

Process mode runs on the trial pool's substrate: each shard gets its
own single-worker ``ProcessPoolExecutor``, so its :class:`ShardRuntime`
lives in one process for the whole run, and one epoch loop drives
either those pools or in-process runtimes.  World builders come from
the one registry in :mod:`repro.experiments.parallel`
(``register_shard_world_builder`` is the same function as
``register_world_builder``).
"""

from __future__ import annotations

import math
import time as _time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
)

import numpy as np

from repro.common.errors import ConfigurationError, ReproError
from repro.common.ids import EntityId
from repro.common.simtime import times_array, to_ticks
from repro.core.scenarios import FloatLog, ScenarioResult, tally_selections
from repro.experiments.parallel import (
    DEFAULT_SHARD_WORLD,
    picklable,
    register_world_builder,
    world_builder,
)
from repro.experiments.rounds import (
    CatalogState,
    ConsumerBlock,
    catalog_at,
    profiled_metrics,
    round_uniforms,
    run_round,
)
from repro.experiments.workloads import consumer_draw_key, shard_consumer_id
from repro.obs.ledger import ActivityLedger, merged_ledger_table
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder
from repro.obs.trace import TelemetrySnapshot
from repro.p2p.hashing import stable_hash
from repro.sim.network import MessageStats, Network, stats_from_snapshot
from repro.store import EventStore

__all__ = [
    "DEFAULT_SHARD_WORLD",
    "SERIAL",
    "PROCESS",
    "ShardDelta",
    "ShardDispatchReport",
    "ShardRuntime",
    "ShardWorkerError",
    "ShardedRunReport",
    "ShardedRunSpec",
    "register_shard_world_builder",
    "run_sharded_experiment",
    "shard_of",
    "shard_partition",
    "shard_world_builder",
]

#: Execution modes reported by :class:`ShardDispatchReport`.
SERIAL = "serial"
PROCESS = "process"

#: The Figure-2 activity shards charge their feedback rows to.
ACTIVITY = "feedback"

#: Consumers per round-kernel call: keeps its working arrays in cache.
ROUND_BLOCK = 4096


def shard_of(entity_id: EntityId, shards: int) -> int:
    """Home shard of *entity_id* under an N-way key-space partition.

    Maps :func:`~repro.p2p.hashing.stable_hash`'s 64-bit output onto
    ``range(shards)`` by range partitioning (multiply-shift), so for
    ``shards == 2**d`` the result is exactly the top *d* hash bits —
    the :func:`~repro.p2p.pgrid.shard_path` subtree prefix.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        return 0
    return (stable_hash(str(entity_id), bits=64) * shards) >> 64


def shard_partition(n_consumers: int, shards: int) -> List[List[int]]:
    """Consumer indices per shard, ascending (one hash per consumer)."""
    if shards == 1:
        return [list(range(n_consumers))]
    owned: List[List[int]] = [[] for _ in range(shards)]
    for i in range(n_consumers):
        owned[shard_of(shard_consumer_id(i), shards)].append(i)
    return owned


#: The one world-builder registry, under the names shard callers use.
register_shard_world_builder = register_world_builder
shard_world_builder = world_builder


# ---------------------------------------------------------------------------
# Specs and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardedRunSpec:
    """A picklable description of one sharded single-world run.

    The shard count is deliberately *not* part of the spec: the same
    spec run at any N must produce byte-identical canonical output, so
    N is a dispatch argument of :func:`run_sharded_experiment`.
    """

    model: str = "beta"
    seed: int = 0
    epochs: int = 4
    rounds_per_epoch: int = 4
    world: str = DEFAULT_SHARD_WORLD
    world_params: Mapping[str, Any] = field(default_factory=dict)
    round_length: float = 1.0
    epsilon: float = 0.1
    optimality_tolerance: float = 0.02
    telemetry: bool = False
    label: str = "sharded"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1: {self.epochs}")
        if self.rounds_per_epoch < 1:
            raise ConfigurationError(
                f"rounds_per_epoch must be >= 1: {self.rounds_per_epoch}"
            )
        if not (math.isfinite(self.round_length) and self.round_length > 0):
            raise ConfigurationError(
                f"round_length must be finite and positive: {self.round_length}"
            )
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError(
                f"epsilon must be in [0, 1]: {self.epsilon}"
            )
        if not self.optimality_tolerance >= 0.0:
            raise ConfigurationError(
                "optimality_tolerance must be >= 0: "
                f"{self.optimality_tolerance}"
            )

    @property
    def total_rounds(self) -> int:
        return self.epochs * self.rounds_per_epoch

    @property
    def n_consumers(self) -> int:
        return int(dict(self.world_params).get("n_consumers", 20))

    def epoch_start(self, epoch: int) -> float:
        return epoch * self.rounds_per_epoch * self.round_length


@dataclass
class ShardDelta:
    """One shard's buffered output for one epoch.

    ``store`` holds the feedback rows in the shard's local append
    order; ``rounds``/``consumers`` are aligned int64 key columns the
    coordinator lexsorts on to recover the canonical global row order
    (a consumer lives on exactly one shard and files one row per
    round, so the key is unique per row).
    """

    shard: int
    epoch: int
    store: EventStore
    rounds: np.ndarray
    consumers: np.ndarray
    regrets: np.ndarray
    #: tolerance-accurate selections per round of this epoch
    accurate: np.ndarray
    #: feedback rows by home shard of the rated service
    home_counts: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(len(self.regrets))


@dataclass
class ShardDispatchReport:
    """Everything shard-count dependent about one run.

    Kept out of the canonical telemetry so the N-invariance gate can
    compare whole snapshots; ``feedback_stats`` / ``load_imbalance``
    come from the *merged* per-shard network registries
    (:func:`~repro.sim.network.stats_from_snapshot`), so shards whose
    nodes stayed silent still count in the denominator.
    """

    shards: int
    mode: str
    wall_ns: int
    consumers_per_shard: List[int]
    rows_per_shard: List[int]
    #: feedback rows whose rated service homes on a different shard
    cross_shard_rows: int
    #: max/mean feedback rows landing per home shard (merged registries)
    load_imbalance: float
    feedback_stats: MessageStats
    #: coordinator-side barrier protocol traffic (score broadcasts, deltas)
    exchange_stats: MessageStats
    #: merged per-shard Figure-2 ledger (priced once across registries)
    fig2: List[Dict[str, Any]]


@dataclass
class ShardedRunReport:
    """Outcome of :func:`run_sharded_experiment`."""

    spec: ShardedRunSpec
    shards: int
    store: EventStore
    result: ScenarioResult
    final_scores: List[float]
    service_ids: List[EntityId]
    telemetry: Optional[TelemetrySnapshot]
    dispatch: ShardDispatchReport

    def canonical_bytes(self) -> bytes:
        """The invariance gate: identical for every shard count."""
        return self.store.canonical_bytes()


# ---------------------------------------------------------------------------
# Shard runtime (one partition of the world)
# ---------------------------------------------------------------------------


class ShardRuntime:
    """Runs one shard's consumers: the *owned* slice of :func:`shard_partition`.

    Selection follows the harness's epsilon-greedy discipline against
    the scores frozen at the epoch start; accuracy/regret accounting
    mirrors :class:`~repro.core.scenarios.DirectSelectionScenario`
    (same optimality tolerance, same per-round bookkeeping).  Each
    round is one :func:`~repro.experiments.rounds.run_round` call over
    the shard's whole consumer block and one store ``extend``.
    """

    def __init__(
        self,
        spec: ShardedRunSpec,
        shard_index: int,
        n_shards: int,
        owned: Sequence[int],
    ) -> None:
        if not 0 <= shard_index < n_shards:
            raise ConfigurationError(
                f"shard index {shard_index} outside [0, {n_shards})"
            )
        self.spec = spec
        self.shard = shard_index
        self.n_shards = n_shards
        builder = world_builder(spec.world)
        params = dict(spec.world_params)
        n_consumers = int(params.pop("n_consumers", 20))
        self.owned = list(owned)
        self.world = builder(
            seed=spec.seed,
            n_consumers=n_consumers,
            consumer_indices=self.owned,
            **params,
        )
        self.consumers = self.world.consumers
        self._services = list(self.world.services)
        self.service_ids = [svc.service_id for svc in self._services]
        self._n_services = len(self._services)
        self._metrics = profiled_metrics(self._services, self.world.taxonomy.names())
        self.block = ConsumerBlock.from_consumers(
            self.consumers, self.owned, self._metrics
        )
        # Rounds run over cache-sized sub-blocks; the kernel's rows do
        # not depend on block size, so this changes no output.
        self._parts = [
            self.block.take(range(lo, min(lo + ROUND_BLOCK, len(self.block))))
            for lo in range(0, len(self.block), ROUND_BLOCK)
        ]
        self._key = consumer_draw_key(self.world.seeds)
        self._segments = np.unique(self.block.segments)
        self._catalog: Optional[CatalogState] = None
        self._targets = np.array(self.service_ids, dtype=object)
        self._service_home = np.array(
            [shard_of(sid, n_shards) for sid in self.service_ids],
            dtype=np.int64,
        )
        # Shard-local accounting: one registry carries both the net.*
        # traffic counters and the fig2.* ledger, snapshotted once at
        # the end and merged by the coordinator.  Registering every
        # shard node up front keeps silent shards in the merged
        # universe (the load-imbalance denominator).
        self.network = Network(base_latency=0.0, jitter=0.0, rng=0)
        for s in range(n_shards):
            self.network.register_node(f"shard-{s}")
        self.ledger = ActivityLedger(self.network.metrics)
        self.ledger.touch(ACTIVITY)
        self._epochs_run = 0

    def run_epoch(self, epoch: int, scores: Sequence[float]) -> ShardDelta:
        """Run one epoch against *scores* and return the buffered delta."""
        spec = self.spec
        if epoch != self._epochs_run:
            raise ConfigurationError(
                f"epoch {epoch} out of order (expected {self._epochs_run})"
            )
        if len(scores) != self._n_services:
            raise ConfigurationError(
                f"expected {self._n_services} scores, got {len(scores)}"
            )
        n_rounds = spec.rounds_per_epoch
        n_own = len(self.owned)
        store = EventStore(time_dtype="int64")
        rounds_col = np.repeat(
            np.arange(epoch * n_rounds, (epoch + 1) * n_rounds, dtype=np.int64),
            n_own,
        )
        consumers_col = np.tile(self.block.indices, n_rounds)
        regrets = np.empty(n_own * n_rounds, dtype=np.float64)
        accurate = np.zeros(n_rounds, dtype=np.int64)
        home_counts = np.zeros(self.n_shards, dtype=np.int64)
        epoch_start = spec.epoch_start(epoch)
        for r_local in range(n_rounds if n_own else 0):
            t = epoch_start + r_local * spec.round_length
            step = epoch * n_rounds + r_local
            self._catalog = catalog = catalog_at(
                self._services, self._metrics, self._segments, t, self._catalog
            )
            parts = [
                run_round(
                    part,
                    catalog,
                    round_uniforms(part, self._key, step, len(self._metrics)),
                    scores,
                    spec.epsilon,
                    spec.optimality_tolerance,
                )
                for part in self._parts
            ]
            choice = np.concatenate([rows.choice for rows in parts])
            store.extend(
                self.block.ids,
                self._targets[choice].tolist(),
                np.concatenate([rows.rating for rows in parts]),
                np.full(n_own, to_ticks(t), dtype=np.int64),
            )
            regrets[r_local * n_own : (r_local + 1) * n_own] = np.concatenate(
                [rows.regret for rows in parts]
            )
            accurate[r_local] = sum(int(rows.accurate.sum()) for rows in parts)
            home_counts += np.bincount(
                self._service_home[choice], minlength=self.n_shards
            )
        if len(store) != len(regrets):
            raise ConfigurationError(
                f"shard {self.shard} produced {len(store)} rows, "
                f"expected {len(regrets)}"
            )
        src = f"shard-{self.shard}"
        for dst in range(self.n_shards):
            self.network.record_traffic(
                src,
                f"shard-{dst}",
                kind="feedback",
                messages=int(home_counts[dst]),
            )
        self.ledger.charge(ACTIVITY, feedback=len(regrets))
        self._epochs_run += 1
        return ShardDelta(
            shard=self.shard,
            epoch=epoch,
            store=store,
            rounds=rounds_col,
            consumers=consumers_col,
            regrets=regrets,
            accurate=accurate,
            home_counts=home_counts,
        )

    def finalize(self) -> Dict[str, Any]:
        """The shard's metrics snapshot (net.* traffic + fig2 ledger)."""
        return self.network.metrics.snapshot()


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class _Coordinator:
    """Owns the reference model, the global store, and all merging."""

    def __init__(self, spec: ShardedRunSpec, shards: int) -> None:
        from repro.core.registry import default_registry

        self.spec = spec
        self.shards = shards
        self.model = default_registry(rng_seed=spec.seed).create(spec.model)
        # Catalog-only build: consumer_indices=[] materializes zero
        # consumers but the identical provider/service side.
        params = dict(spec.world_params)
        params["consumer_indices"] = []
        world = world_builder(spec.world)(seed=spec.seed, **params)
        self.service_ids: List[EntityId] = [
            svc.service_id for svc in world.services
        ]
        self.store = EventStore(time_dtype="int64")
        self._accurate = np.zeros(spec.total_rounds, dtype=np.int64)
        self._regrets = FloatLog()
        self._selection_counts: Dict[EntityId, int] = {}
        self._selections = 0
        self._rows_per_shard = [0] * shards
        self._cross_rows = 0
        self.recorder = Recorder() if spec.telemetry else None
        self.ledger = (
            ActivityLedger(self.recorder.registry) if self.recorder else None
        )
        if self.ledger is not None:
            self.ledger.touch(ACTIVITY)
        # Barrier-protocol accounting (N-dependent, dispatch-only).
        self.exchange_net = Network(base_latency=0.0, jitter=0.0, rng=0)
        self.exchange_net.register_node("coordinator")
        for s in range(shards):
            self.exchange_net.register_node(f"shard-{s}")

    def epoch_scores(self, epoch: int) -> List[float]:
        """Scores frozen for *epoch*, broadcast to every shard."""
        scores = self.model.score_many(
            self.service_ids, now=self.spec.epoch_start(epoch)
        )
        for s in range(self.shards):
            self.exchange_net.record_traffic(
                "coordinator",
                f"shard-{s}",
                kind="shard-scores",
                messages=1,
                size=len(scores),
            )
        return scores

    def apply(self, epoch: int, deltas: Sequence[ShardDelta]) -> None:
        """Merge one epoch's shard deltas in canonical order.

        *deltas* arrive as a list in shard-index order; the merged rows
        are then re-sorted by the ``(round, consumer index)`` key so
        the global append order — and every interner code downstream —
        matches the 1-shard run exactly.  Rows stay code columns: the
        sorted codes feed one ``extend_coded`` into the global store
        (which validates them) and one ``record_columns`` into the
        model.
        """
        spec = self.spec
        # Lay the deltas' id tables end to end (shard-index order: the
        # canonical merge) and offset each delta's codes into it.
        names: List[EntityId] = []
        parts = []
        for delta in deltas:
            cols = delta.store.snapshot()
            parts.append(
                (cols.rater + len(names), cols.target + len(names), cols)
            )
            names.extend(delta.store.entities.values())
        rounds = np.concatenate([d.rounds for d in deltas])
        consumers = np.concatenate([d.consumers for d in deltas])
        regrets = np.concatenate([d.regrets for d in deltas])
        order = np.lexsort((consumers, rounds))
        rater_codes = np.concatenate([p[0] for p in parts])[order]
        target_codes = np.concatenate([p[1] for p in parts])[order]
        values = np.concatenate([p[2].value for p in parts])[order]
        ticks = np.concatenate([p[2].time for p in parts])[order]
        self.store.extend_coded(names, rater_codes, target_codes, values, ticks)
        table = np.array(names, dtype=object)
        self.model.record_columns(
            table[rater_codes].tolist(),
            table[target_codes].tolist(),
            values,
            times_array(ticks),
        )
        n_rows = len(order)
        lo = epoch * spec.rounds_per_epoch
        for delta in deltas:
            self._accurate[lo : lo + spec.rounds_per_epoch] += delta.accurate
            self._rows_per_shard[delta.shard] += delta.n_rows
            self._cross_rows += int(
                delta.home_counts.sum() - delta.home_counts[delta.shard]
            )
            self.exchange_net.record_traffic(
                f"shard-{delta.shard}",
                "coordinator",
                kind="shard-delta",
                messages=1,
                size=delta.n_rows,
            )
        self._regrets.extend(regrets[order])
        # A service sits under one code per delta: counts add by name.
        tally_selections(self._selection_counts, names, target_codes)
        self._selections += n_rows
        if self.recorder is not None:
            start = spec.epoch_start(epoch)
            self.recorder.span(
                "sharded.epoch",
                duration=spec.rounds_per_epoch * spec.round_length,
                attrs={"epoch": epoch, "rows": n_rows},
                time=start,
            )
            self.recorder.advance(spec.epoch_start(epoch + 1))
            self.recorder.count("sharded.rows", n_rows)
        if self.ledger is not None:
            self.ledger.charge(ACTIVITY, feedback=n_rows)

    def finish(
        self,
        mode: str,
        consumers_per_shard: List[int],
        shard_snapshots: List[Dict[str, Any]],
        wall_ns: int,
    ) -> ShardedRunReport:
        spec = self.spec
        n_consumers = spec.n_consumers
        optimal = int(self._accurate.sum())
        result = ScenarioResult(
            rounds=spec.total_rounds,
            selections=self._selections,
            optimal_selections=optimal,
            regrets=self._regrets,
            round_accuracy=FloatLog(
                [
                    count / n_consumers if n_consumers else 0.0
                    for count in self._accurate.tolist()
                ]
            ),
            selection_counts=dict(self._selection_counts),
        )
        final_scores = self.model.score_many(
            self.service_ids, now=spec.total_rounds * spec.round_length
        )
        telemetry = None
        if self.recorder is not None:
            telemetry = TelemetrySnapshot.capture(
                self.recorder.tracer,
                self.recorder.registry,
                meta={
                    "kind": "sharded",
                    "label": spec.label,
                    "model": spec.model,
                    "seed": spec.seed,
                    "epochs": spec.epochs,
                    "rounds_per_epoch": spec.rounds_per_epoch,
                    "world": spec.world,
                },
            )
        merged = MetricsRegistry.merge_snapshots(shard_snapshots)
        feedback_stats = stats_from_snapshot(merged)
        dispatch = ShardDispatchReport(
            shards=self.shards,
            mode=mode,
            wall_ns=wall_ns,
            consumers_per_shard=consumers_per_shard,
            rows_per_shard=list(self._rows_per_shard),
            cross_shard_rows=self._cross_rows,
            load_imbalance=feedback_stats.load_imbalance(),
            feedback_stats=feedback_stats,
            exchange_stats=self.exchange_net.stats,
            fig2=merged_ledger_table(shard_snapshots),
        )
        return ShardedRunReport(
            spec=spec,
            shards=self.shards,
            store=self.store,
            result=result,
            final_scores=list(final_scores),
            service_ids=list(self.service_ids),
            telemetry=telemetry,
            dispatch=dispatch,
        )


# ---------------------------------------------------------------------------
# Shard dispatch
# ---------------------------------------------------------------------------


class ShardWorkerError(ReproError):
    """A shard worker process failed.

    Carries the worker-side formatted traceback, so the coordinator's
    error names the original exception and where it was raised.
    """

    def __init__(self, shard: int, worker_traceback: str) -> None:
        super().__init__(f"shard worker {shard} failed:\n{worker_traceback}")
        self.shard = shard
        self.worker_traceback = worker_traceback


#: The runtime a pool worker hosts.  Each shard has a single-worker
#: pool, so this process holds exactly one shard for the whole run.
_hosted: List[ShardRuntime] = []


def _host_shard(
    spec: ShardedRunSpec, shard: int, shards: int, owned: List[int]
) -> None:
    _hosted[:] = [ShardRuntime(spec, shard, shards, owned)]


def _call_hosted(method: str, *args: Any) -> Any:
    return getattr(_hosted[0], method)(*args)


def _gather(futures: Sequence[Future]) -> List[Any]:
    """Results in shard order; a failed shard raises :class:`ShardWorkerError`.

    A worker exception comes back re-raised with the remote traceback
    as its ``__cause__``; a worker that died outright breaks its pool,
    and the local ``BrokenProcessPool`` traceback says so.
    """
    results = []
    for shard, future in enumerate(futures):
        try:
            results.append(future.result())
        except Exception as exc:
            # concurrent.futures quotes the remote traceback text.
            remote = exc.__cause__
            text = (
                str(remote).removeprefix('\n"""\n').removesuffix('"""')
                if remote is not None
                else "".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                )
            )
            raise ShardWorkerError(shard, text) from exc
    return results


@contextmanager
def _shard_calls(
    spec: ShardedRunSpec, partition: List[List[int]], pooled: bool
) -> Iterator[Callable[..., List[Any]]]:
    """Yield ``call(method, *args)``: that :class:`ShardRuntime` method
    run on every shard, results in shard order.

    Serial mode calls in-process runtimes directly; process mode
    submits the call to each shard's single-worker pool.
    """
    shards = len(partition)
    if not pooled:
        runtimes = [
            ShardRuntime(spec, s, shards, owned)
            for s, owned in enumerate(partition)
        ]
        yield lambda method, *args: [
            getattr(runtime, method)(*args) for runtime in runtimes
        ]
        return
    pools = [ProcessPoolExecutor(max_workers=1) for _ in partition]
    try:
        _gather([
            pool.submit(_host_shard, spec, s, shards, owned)
            for s, (pool, owned) in enumerate(zip(pools, partition))
        ])
        yield lambda method, *args: _gather(
            [pool.submit(_call_hosted, method, *args) for pool in pools]
        )
    finally:
        for pool in pools:
            pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_sharded_experiment(
    spec: ShardedRunSpec,
    shards: int = 1,
    mode: Optional[str] = None,
) -> ShardedRunReport:
    """Run *spec* partitioned over *shards*, canonical at any N.

    Args:
        shards: number of partitions (and worker processes in
            ``process`` mode).
        mode: ``None`` picks processes when ``shards > 1`` and the
            spec/builder survive a pickling pre-check, else falls back
            to an in-process loop over the same :class:`ShardRuntime`
            (identical results by construction).  ``"serial"`` forces
            the loop; ``"process"`` insists and raises when the spec
            cannot cross a process boundary.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if mode not in (None, SERIAL, PROCESS):
        raise ConfigurationError(f"unknown mode: {mode!r}")
    builder = world_builder(spec.world)
    can_pickle = picklable(spec, builder)
    if mode == PROCESS and not can_pickle:
        raise ConfigurationError(
            "process mode requires a picklable spec and a module-level "
            "world builder"
        )
    use_pool = shards > 1 and mode != SERIAL and can_pickle
    coordinator = _Coordinator(spec, shards)
    start_ns = _time.perf_counter_ns()
    partition = shard_partition(spec.n_consumers, shards)
    with _shard_calls(spec, partition, use_pool) as call:
        for epoch in range(spec.epochs):
            scores = coordinator.epoch_scores(epoch)
            coordinator.apply(epoch, call("run_epoch", epoch, scores))
        shard_snapshots = call("finalize")
    wall_ns = _time.perf_counter_ns() - start_ns
    return coordinator.finish(
        PROCESS if use_pool else SERIAL,
        [len(owned) for owned in partition],
        shard_snapshots,
        wall_ns,
    )
