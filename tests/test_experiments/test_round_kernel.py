"""The vectorized select-invoke-rate round and its keyed draws.

Three contracts the sharded runner's ``1 == N`` shards rests on:

* :func:`~repro.common.philox.philox4x64` is Philox4x64-10 bit for bit
  (Random123 known answers, ``numpy.random.Philox`` on random keys and
  counters);
* :func:`~repro.experiments.rounds.run_round` equals a per-row scalar
  reference built from ``math.*`` and per-consumer ``numpy.random.Philox``
  streams — choice and success exactly, ratings and regret to 1e-9;
* a row is bit-identical whatever block it runs in (sizes 1, 7, 97,
  all; shuffled), which guards against ulp drift between the SIMD body
  and tail of ``np.log`` / ``np.cos``.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.philox import keyed_uniforms, keyed_words, philox4x64
from repro.experiments.rounds import (
    ROUND_STREAM,
    ConsumerBlock,
    catalog_at,
    draw_blocks,
    run_round,
)
from repro.experiments.sharded import (
    ShardRuntime,
    ShardedRunSpec,
    register_shard_world_builder,
)
from repro.experiments.workloads import consumer_draw_key, make_shard_world
from repro.robustness.attacks import badmouth_strategy
from repro.services.provider import ImprovingBehavior, OscillatingBehavior

U64 = np.uint64
MASK64 = (1 << 64) - 1

#: Random123 kat_vectors, philox4x64 10 rounds: (counter, key, output)
KNOWN_ANSWERS = [
    ((0, 0, 0, 0), (0, 0),
     (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC,
      0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)),
    ((MASK64,) * 4, (MASK64,) * 2,
     (0x87B092C3013FE90B, 0x438C3C67BE8D0224,
      0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)),
    ((0x243F6A8885A308D3, 0x13198A2E03707344,
      0xA4093822299F31D0, 0x082EFA98EC4E6C89),
     (0x452821E638D01377, 0xBE5466CF34E90C6C),
     (0xA528F45403E61D95, 0x38C72DBD566E9788,
      0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6)),
]


def preceding(counter) -> np.ndarray:
    """The 256-bit counter one below *counter* (little-endian words):
    numpy's Philox increments before it generates."""
    value = sum(int(w) << (64 * i) for i, w in enumerate(counter))
    value = (value - 1) % (1 << 256)
    return np.array(
        [(value >> (64 * i)) & MASK64 for i in range(4)], dtype=U64
    )


def numpy_words(key, counter, n: int) -> List[int]:
    bits = np.random.Philox(
        key=np.array(key, dtype=U64), counter=preceding(counter)
    )
    return bits.random_raw(n).tolist()


class TestPhilox:
    @pytest.mark.parametrize("counter,key,expected", KNOWN_ANSWERS)
    def test_random123_known_answers(self, counter, key, expected):
        out = philox4x64(np.array(counter, dtype=U64), np.array(key, dtype=U64))
        assert out.tolist() == list(expected)

    def test_matches_numpy_philox(self, global_random_seed):
        rng = np.random.default_rng(global_random_seed)
        keys = rng.integers(0, MASK64, size=(64, 2), dtype=U64, endpoint=True)
        counters = rng.integers(
            0, MASK64, size=(64, 4), dtype=U64, endpoint=True
        )
        # Low word 0: numpy's preceding counter borrows into word 1, so
        # its increment back carries across a word boundary.
        counters[::3, 0] = 0
        counters[::9, 1] = 0
        ours = philox4x64(counters, keys)
        for i in range(len(keys)):
            assert ours[i].tolist() == numpy_words(keys[i], counters[i], 4)

    def test_keyed_words_are_consecutive_numpy_blocks(self, global_random_seed):
        root = global_random_seed * 7919 + 1
        index = [0, 3, 2**40 + 5]
        words = keyed_words(root, index, 9, 2, blocks=3)
        for row, agent in zip(words.tolist(), index):
            assert row == numpy_words((root, agent), (0, 9, 2, 0), 12)

    def test_uniforms_use_the_top_53_bits(self):
        words = keyed_words(5, [1], 0, 0, 1)[0]
        uniforms = keyed_uniforms(5, [1], 0, 0, 1)[0]
        assert uniforms.tolist() == [
            (w >> 11) * 2.0**-53 for w in words.tolist()
        ]


# ---------------------------------------------------------------------------
# Kernel == scalar reference
# ---------------------------------------------------------------------------


def world(seed: int, n_consumers: int = 40):
    """Heterogeneous weights, segment offsets, time-varying truth."""
    built = make_shard_world(
        n_providers=3,
        services_per_provider=2,
        n_consumers=n_consumers,
        seed=seed,
        n_segments=3,
        segment_spread=0.25,
        preference_heterogeneity=0.8,
        behaviors={
            0: OscillatingBehavior(drop=0.35, good_duration=2.0, bad_duration=2.0),
            3: ImprovingBehavior(initial_deficit=0.4, ramp_duration=5.0),
        },
    )
    for consumer in built.consumers[::4]:
        consumer.rating_noise = 0.0  # both branches of the rating noise
    return built


def clamp(x: float) -> float:
    return min(1.0, max(0.0, x))


def reference_round(
    built, key: int, round_index: int, time: float, exploit: int,
    epsilon: float, tolerance: float,
) -> List[Tuple[int, bool, float, float, bool]]:
    """One row at a time, in plain floats, from per-consumer numpy
    Philox streams: (choice, success, rating, regret, accurate)."""
    metrics = built.taxonomy.names()
    n_metrics = len(metrics)
    ids = [svc.service_id for svc in built.services]
    profiles = [svc.profile_at(time) for svc in built.services]
    n_words = 4 * draw_blocks(n_metrics)
    rows = []
    for index, consumer in enumerate(built.consumers):
        u = [
            (w >> 11) * 2.0**-53
            for w in numpy_words(
                (key, index), (0, round_index, ROUND_STREAM, 0), n_words
            )
        ]
        weights = [
            max(consumer.preferences.weights.get(m, 0.0), 0.0) for m in metrics
        ]
        total = sum(weights)
        segment = consumer.segment

        def truth(profile, name):
            offset = profile.segment_offsets.get(name, {}).get(segment, 0.0)
            return clamp(profile.quality[name] + offset)

        quals = [
            sum(w * truth(p, m) for w, m in zip(weights, metrics)) / total
            for p in profiles
        ]
        best = max(range(len(ids)), key=lambda s: (quals[s], ids[s]))
        if u[0] < epsilon:
            choice = min(int(u[1] * len(ids)), len(ids) - 1)
        else:
            choice = exploit
        regret = quals[best] - quals[choice]
        accurate = choice == best or regret <= tolerance
        profile = profiles[choice]
        success = u[2] < profile.success_rate
        normals = []
        for p in range(n_metrics):
            radius = math.sqrt(-2.0 * math.log(1.0 - u[4 + 2 * p]))
            theta = 2.0 * math.pi * u[5 + 2 * p]
            normals += [radius * math.cos(theta), radius * math.sin(theta)]
        rating = 0.0
        if success:
            filed = [
                clamp(
                    clamp(truth(profile, m) + profile.noise * normals[i])
                    + consumer.rating_noise * normals[n_metrics + i]
                )
                for i, m in enumerate(metrics)
            ]
            rating = clamp(sum(w * f for w, f in zip(weights, filed)) / total)
        rows.append((choice, success, rating, regret, accurate))
    return rows


def kernel_round(built, key, round_index, time, exploit, epsilon, tolerance,
                 block=None):
    metrics = built.taxonomy.names()
    if block is None:
        block = ConsumerBlock.from_consumers(
            built.consumers, range(len(built.consumers)), metrics
        )
    catalog = catalog_at(built.services, metrics, block.segments, time)
    return run_round(
        block, catalog, key, round_index, exploit, epsilon, tolerance
    )


class TestKernelMatchesReference:
    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    def test_rows_match_scalar_reference(self, global_random_seed, epsilon):
        built = world(global_random_seed)
        key = consumer_draw_key(built.seeds)
        for round_index, exploit in ((0, 0), (3, 4), (7, 1)):
            time = float(round_index)
            ref = reference_round(
                built, key, round_index, time, exploit, epsilon, 0.02
            )
            rows = kernel_round(
                built, key, round_index, time, exploit, epsilon, 0.02
            )
            assert rows.choice.tolist() == [r[0] for r in ref]
            assert rows.success.tolist() == [r[1] for r in ref]
            assert rows.accurate.tolist() == [r[4] for r in ref]
            np.testing.assert_allclose(
                rows.rating, [r[2] for r in ref], rtol=0, atol=1e-9
            )
            np.testing.assert_allclose(
                rows.regret, [r[3] for r in ref], rtol=0, atol=1e-9
            )
            if epsilon == 0.0:
                assert set(rows.choice.tolist()) == {exploit}

    def test_reference_exercises_failures_and_varying_truth(self):
        built = world(3, n_consumers=300)
        key = consumer_draw_key(built.seeds)
        rows = kernel_round(built, key, 0, 0.0, 0, 1.0, 0.02)
        assert not rows.success.all()
        assert (rows.rating[~rows.success] == 0.0).all()
        metrics = built.taxonomy.names()
        good = catalog_at(built.services, metrics, [0, 1, 2], 0.0)
        bad = catalog_at(built.services, metrics, [0, 1, 2], 3.0)
        assert (bad.quality[:, 0] < good.quality[:, 0]).any()
        assert (good.quality[0] != good.quality[1]).any()  # segment offsets


class TestBlockInvariance:
    def test_any_block_gives_identical_rows(self, global_random_seed):
        built = world(global_random_seed, n_consumers=250)
        key = consumer_draw_key(built.seeds)
        metrics = built.taxonomy.names()
        full = ConsumerBlock.from_consumers(
            built.consumers, range(len(built.consumers)), metrics
        )
        whole = kernel_round(built, key, 5, 5.0, 2, 0.5, 0.02, block=full)
        order = np.random.default_rng(global_random_seed).permutation(len(full))
        for size in (1, 7, 97, len(full)):
            choice = np.empty_like(whole.choice)
            success = np.empty_like(whole.success)
            rating = np.empty_like(whole.rating)
            regret = np.empty_like(whole.regret)
            for lo in range(0, len(order), size):
                positions = order[lo : lo + size]
                rows = kernel_round(
                    built, key, 5, 5.0, 2, 0.5, 0.02,
                    block=full.take(positions),
                )
                choice[positions] = rows.choice
                success[positions] = rows.success
                rating[positions] = rows.rating
                regret[positions] = rows.regret
            assert choice.tobytes() == whole.choice.tobytes()
            assert success.tobytes() == whole.success.tobytes()
            assert rating.tobytes() == whole.rating.tobytes()
            assert regret.tobytes() == whole.regret.tobytes()


# ---------------------------------------------------------------------------
# Honest consumers only
# ---------------------------------------------------------------------------


def badmouthing_shard_world(seed, consumer_indices=None, **params):
    built = make_shard_world(
        seed=seed, consumer_indices=consumer_indices, **params
    )
    for consumer in built.consumers[:1]:
        consumer.rating_strategy = badmouth_strategy({"svc-0001"})
    return built


register_shard_world_builder(
    "test-badmouthing-shard-world", badmouthing_shard_world, overwrite=True
)


class TestHonestOnly:
    def test_non_honest_consumer_rejected_at_runtime_build(self):
        spec = ShardedRunSpec(
            world="test-badmouthing-shard-world",
            world_params=dict(n_providers=2, n_consumers=5),
        )
        with pytest.raises(ConfigurationError, match="honest_rating_strategy"):
            ShardRuntime(spec, 0, 1)

    def test_block_rejects_non_honest_consumer(self):
        built = badmouthing_shard_world(seed=1, n_consumers=3)
        with pytest.raises(ConfigurationError):
            ConsumerBlock.from_consumers(
                built.consumers, range(3), built.taxonomy.names()
            )
