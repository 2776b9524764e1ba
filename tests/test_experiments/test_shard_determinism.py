"""Shard-count invariance: 1 shard == 2 shards == 8 shards, byte for byte.

The sharded runner's headline contract — partitioning one world over N
processes must be invisible in every canonical output: the merged
:class:`~repro.store.EventStore`'s ``canonical_bytes()``, the scenario
result, the final score table, the telemetry metrics, and the exported
trace JSONL (compared by sha256, the way CI baselines compare them).
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.sharded import (
    PROCESS,
    SERIAL,
    ShardRuntime,
    ShardWorkerError,
    ShardedRunSpec,
    register_shard_world_builder,
    run_sharded_experiment,
    shard_of,
)
from repro.experiments.workloads import (
    make_shard_world,
    shard_consumer_id,
)
from repro.obs.trace import write_jsonl
from repro.p2p.pgrid import shard_path

SMALL_WORLD = dict(n_providers=3, services_per_provider=2, n_consumers=11)


def _spec(seed: int, **overrides) -> ShardedRunSpec:
    params = dict(
        model="beta",
        seed=seed,
        epochs=2,
        rounds_per_epoch=2,
        world_params=SMALL_WORLD,
        telemetry=True,
    )
    params.update(overrides)
    return ShardedRunSpec(**params)


def exploding_shard_world(seed, consumer_indices=None, **params):
    """Builds the catalogue, but fails on any shard that owns consumers."""
    if consumer_indices:
        raise RuntimeError("shard world builder exploded on purpose")
    return make_shard_world(seed=seed, consumer_indices=consumer_indices, **params)


register_shard_world_builder(
    "test-exploding-shard-world", exploding_shard_world, overwrite=True
)


def trace_sha256(report) -> str:
    buffer = io.StringIO()
    write_jsonl(report.telemetry, buffer)
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


class TestShardCountInvariance:
    def test_one_two_eight_shards_byte_identical(self, global_random_seed):
        spec = _spec(global_random_seed)
        reports = {
            n: run_sharded_experiment(spec, shards=n, mode=SERIAL)
            for n in (1, 2, 8)
        }
        base = reports[1]
        base_bytes = base.canonical_bytes()
        base_trace = trace_sha256(base)
        for n in (2, 8):
            report = reports[n]
            assert report.canonical_bytes() == base_bytes
            assert report.result == base.result
            assert report.final_scores == base.final_scores
            assert report.telemetry.metrics == base.telemetry.metrics
            assert trace_sha256(report) == base_trace

    def test_partition_covers_and_is_disjoint(self, global_random_seed):
        n_consumers = 40
        shards = 4
        owners = [
            shard_of(shard_consumer_id(i), shards)
            for i in range(n_consumers)
        ]
        assert all(0 <= s < shards for s in owners)
        runtime_owned = [
            ShardRuntime(
                _spec(
                    global_random_seed,
                    world_params=dict(SMALL_WORLD, n_consumers=n_consumers),
                ),
                s,
                shards,
            ).owned
            for s in range(shards)
        ]
        flat = sorted(i for owned in runtime_owned for i in owned)
        assert flat == list(range(n_consumers))

    def test_shard_of_matches_pgrid_prefix(self):
        for entity in ("consumer-0000003", "svc-0001", "provider-0002"):
            for depth in (1, 2, 3):
                assert shard_of(entity, 2 ** depth) == int(
                    shard_path(entity, depth), 2
                )


class TestProcessMode:
    def test_process_pool_matches_serial(self):
        spec = _spec(17)
        serial = run_sharded_experiment(spec, shards=2, mode=SERIAL)
        pooled = run_sharded_experiment(spec, shards=2)
        assert pooled.dispatch.mode == PROCESS
        assert serial.dispatch.mode == SERIAL
        assert pooled.canonical_bytes() == serial.canonical_bytes()
        assert pooled.result == serial.result
        assert pooled.telemetry.metrics == serial.telemetry.metrics
        assert (
            pooled.dispatch.consumers_per_shard
            == serial.dispatch.consumers_per_shard
        )
        assert (
            pooled.dispatch.rows_per_shard == serial.dispatch.rows_per_shard
        )

    def test_worker_failure_surfaces_typed_with_traceback(self):
        spec = _spec(5, world="test-exploding-shard-world")
        with pytest.raises(ShardWorkerError) as info:
            run_sharded_experiment(spec, shards=2, mode=PROCESS)
        error = info.value
        assert error.shard == 0
        assert "Traceback (most recent call last)" in error.worker_traceback
        assert "exploded on purpose" in error.worker_traceback
        assert "exploding_shard_world" in error.worker_traceback
        assert error.worker_traceback in str(error)

    def test_unpicklable_builder_falls_back_to_serial(self):
        register_shard_world_builder(
            "lambda-shard-world",  # reprolint only scans src/repro
            lambda seed, consumer_indices=None, **params: make_shard_world(
                seed=seed, consumer_indices=consumer_indices, **params
            ),
            overwrite=True,
        )
        spec = _spec(5, world="lambda-shard-world")
        report = run_sharded_experiment(spec, shards=2)
        assert report.dispatch.mode == SERIAL
        named = run_sharded_experiment(_spec(5), shards=2, mode=SERIAL)
        assert report.canonical_bytes() == named.canonical_bytes()
        assert report.result == named.result

    def test_forced_process_mode_rejects_unpicklable(self):
        register_shard_world_builder(
            "lambda-shard-world-2",
            lambda seed, consumer_indices=None, **params: make_shard_world(
                seed=seed, consumer_indices=consumer_indices, **params
            ),
            overwrite=True,
        )
        with pytest.raises(ConfigurationError):
            run_sharded_experiment(
                _spec(5, world="lambda-shard-world-2"),
                shards=2,
                mode=PROCESS,
            )


class TestDispatchAccounting:
    def test_silent_shards_count_in_load_imbalance(self):
        # 1 consumer over 4 shards: three shards never receive a
        # feedback row, yet the merged universe must still average over
        # all four (satellite: silent shards are not dropped).
        spec = _spec(3, world_params=dict(SMALL_WORLD, n_consumers=1))
        report = run_sharded_experiment(spec, shards=4, mode=SERIAL)
        stats = report.dispatch.feedback_stats
        assert stats.universe is not None and stats.universe >= 4
        assert report.dispatch.load_imbalance >= 3.9

    def test_cross_shard_rows_and_fig2_rows(self):
        spec = _spec(11)
        report = run_sharded_experiment(spec, shards=4, mode=SERIAL)
        total_rows = spec.total_rounds * spec.n_consumers
        assert sum(report.dispatch.rows_per_shard) == total_rows
        assert 0 <= report.dispatch.cross_shard_rows <= total_rows
        fig2 = {row["activity"]: row for row in report.dispatch.fig2}
        assert fig2["feedback"]["feedback"] == total_rows

    def test_single_shard_has_no_cross_traffic(self):
        report = run_sharded_experiment(_spec(2), shards=1, mode=SERIAL)
        assert report.dispatch.cross_shard_rows == 0
        assert report.dispatch.load_imbalance == pytest.approx(1.0)


class TestSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ShardedRunSpec(epochs=0)
        with pytest.raises(ConfigurationError):
            ShardedRunSpec(rounds_per_epoch=0)
        with pytest.raises(ConfigurationError):
            ShardedRunSpec(epsilon=1.5)
        with pytest.raises(ConfigurationError):
            run_sharded_experiment(ShardedRunSpec(), shards=0)
        with pytest.raises(ConfigurationError):
            run_sharded_experiment(ShardedRunSpec(), shards=1, mode="bogus")
        with pytest.raises(ConfigurationError):
            shard_of("x", 0)
