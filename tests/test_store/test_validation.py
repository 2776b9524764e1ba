"""Bad events stop where they enter canonical state.

Every EventStore write path — ``append`` (scalar), ``extend``,
``extend_coded`` and ``merge_from`` (vectorized) — rejects a NaN, infinite or out-of-[0, 1]
rating and a non-finite time with :class:`InvalidEventError`, and
leaves the store untouched.  Out-of-order times stay legal.  The
column-wise paths (``extend``, ``extend_coded`` and a model's
``record_columns``) also reject parallel columns of unequal length
before interning anything.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.common.errors import InvalidEventError, ReproError
from repro.experiments.sharded import ShardRuntime, ShardedRunSpec
from repro.models.beta import BetaReputation
from repro.store import EventStore

BAD_RATINGS = [math.nan, math.inf, -math.inf, -0.01, 1.01]
BAD_TIMES = [math.nan, math.inf, -math.inf]

#: (raters, targets, values, times) with one column out of step
RAGGED = [
    (["a", "b"], ["t", "u"], [0.1], [0.0]),
    (["a"], ["t", "u"], [0.1], [0.0]),
    (["a"], ["t"], [0.1], [0.0, 1.0]),
    (["a", "b"], ["t", "u"], [], []),
]


def _seeded_store() -> EventStore:
    store = EventStore()
    store.extend(["x", "y"], ["t", "t"], [0.2, 0.8], [0.0, 1.0])
    return store


def test_error_is_typed():
    assert issubclass(InvalidEventError, ReproError)
    assert issubclass(InvalidEventError, ValueError)


class TestAppend:
    @pytest.mark.parametrize("rating", BAD_RATINGS)
    def test_rejects_bad_rating(self, rating):
        store = EventStore()
        store.append("r", "t", 0.5, 0.0)
        with pytest.raises(InvalidEventError):
            store.append("r", "t", rating, 1.0)
        assert len(store) == 1

    @pytest.mark.parametrize("time", BAD_TIMES)
    def test_rejects_non_finite_time(self, time):
        store = EventStore()
        with pytest.raises(InvalidEventError):
            store.append("r", "t", 0.5, time)
        assert len(store) == 0 and len(store.entities) == 0

    def test_backwards_time_allowed_and_tracked(self):
        store = EventStore()
        store.append("r", "t", 0.0, 5.0)
        assert store.times_monotonic
        store.append("r", "t", 1.0, 2.0)
        assert len(store) == 2
        assert not store.times_monotonic


class TestExtend:
    @pytest.mark.parametrize("rating", BAD_RATINGS)
    def test_rejects_bad_rating(self, rating):
        store = EventStore()
        with pytest.raises(InvalidEventError, match="row 2"):
            store.extend(["a", "b", "c"], ["t"] * 3, [0.1, 0.2, rating], [0, 1, 2])
        assert len(store) == 0 and len(store.entities) == 0

    @pytest.mark.parametrize("time", BAD_TIMES)
    def test_rejects_non_finite_time(self, time):
        store = EventStore()
        with pytest.raises(InvalidEventError):
            store.extend(["a", "b"], ["t", "t"], [0.1, 0.2], [0.0, time])
        assert len(store) == 0

    def test_backwards_time_allowed_and_tracked(self):
        store = EventStore(time_dtype="int64")
        store.extend(["a", "b"], ["t", "t"], [0.1, 0.2], np.array([3, 1]))
        assert len(store) == 2
        assert not store.times_monotonic


    @pytest.mark.parametrize("columns", RAGGED)
    def test_rejects_ragged_columns(self, columns):
        store = _seeded_store()
        before = store.canonical_bytes()
        with pytest.raises(InvalidEventError, match="column lengths"):
            store.extend(*columns)
        assert store.canonical_bytes() == before
        assert store.entities.values() == ("x", "t", "y")


class TestMergeFrom:
    def test_rejects_pickled_shard_delta_carrying_nan(self):
        spec = ShardedRunSpec(
            world_params=dict(n_providers=2, services_per_provider=2, n_consumers=6)
        )
        runtime = ShardRuntime(spec, 0, 1, range(spec.n_consumers))
        delta = runtime.run_epoch(0, [0.5] * len(runtime.service_ids))
        shipped = pickle.loads(pickle.dumps(delta))
        target = EventStore(time_dtype="int64")
        target.merge_from(pickle.loads(pickle.dumps(delta)).store)
        before = target.canonical_bytes()
        # Corrupted in transit: the NaN never went through append/extend.
        shipped.store._tail_value[3] = math.nan
        with pytest.raises(InvalidEventError, match="row 3"):
            target.merge_from(shipped.store)
        assert target.canonical_bytes() == before

    def test_rejects_non_finite_time_in_float_store(self):
        source = EventStore()
        source.extend(["a", "b"], ["t", "t"], [0.1, 0.2], [0.0, 1.0])
        source._tail_time[0] = math.inf
        with pytest.raises(InvalidEventError):
            EventStore().merge_from(source)

    def test_backwards_time_allowed_and_tracked(self):
        source = EventStore()
        source.extend(["a", "b"], ["t", "t"], [0.1, 0.2], [4.0, 1.0])
        merged = EventStore()
        merged.merge_from(source)
        assert len(merged) == 2
        assert not merged.times_monotonic


class TestExtendCoded:
    def test_matches_extend_over_decoded_ids(self):
        names = ["x", "a", "b", "x", "c"]  # a foreign table may repeat ids
        raters = np.array([2, 1, 4])
        targets = np.array([0, 3, 0])
        coded = EventStore()
        coded.extend_coded(names, raters, targets, [0.1, 0.2, 0.3], [0.0, 1.0, 2.0])
        plain = EventStore()
        plain.extend(
            [names[i] for i in raters], [names[i] for i in targets],
            [0.1, 0.2, 0.3], [0.0, 1.0, 2.0],
        )
        assert coded.canonical_bytes() == plain.canonical_bytes()

    def test_rejects_bad_rating(self):
        store = EventStore()
        with pytest.raises(InvalidEventError):
            store.extend_coded(["a", "t"], [0], [1], [math.nan], [0.0])
        assert len(store) == 0

    @pytest.mark.parametrize("columns", RAGGED)
    def test_rejects_ragged_columns(self, columns):
        raters, targets, values, times = columns
        names = ["a", "b", "t", "u"]
        store = _seeded_store()
        before = store.canonical_bytes()
        with pytest.raises(InvalidEventError, match="column lengths"):
            store.extend_coded(
                names,
                np.array([names.index(r) for r in raters]),
                np.array([names.index(t) for t in targets]),
                np.array(values, dtype=np.float64),
                np.array(times, dtype=np.float64),
            )
        assert store.canonical_bytes() == before
        assert store.entities.values() == ("x", "t", "y")


class TestRecordColumns:
    @pytest.mark.parametrize("columns", RAGGED)
    def test_rejects_ragged_columns(self, columns):
        model = BetaReputation()
        model.record_columns(["x", "y"], ["t", "t"], [0.2, 0.8], [0.0, 1.0])
        scores = model.score_many(["t", "u"])
        before = model._store.canonical_bytes()
        with pytest.raises(InvalidEventError, match="column lengths"):
            model.record_columns(*columns)
        assert model._store.canonical_bytes() == before
        assert model.score_many(["t", "u"]) == scores
