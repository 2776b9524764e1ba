"""Incremental fold == from-scratch fold, under any write interleaving.

Beta, eBay and Sporas fold only the store rows appended since their
last query into model-private state (``StoreBackedModel._sync``).  The
oracle is the same ``_fold`` run once over ``columns_since(0)`` on a
fresh model attached to the same store.  These suites drive random
interleavings of every write path — ``record``, ``record_many``,
``record_columns`` and ``EventStore.merge_from`` — with queries at
random points, over several chunk sizes, with new rater-only ids
growing the entity table between folds, and require the two states to
agree: bitwise for beta (``lam == 1``), eBay and Sporas, to 1e-9 for
beta with forgetting.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.common.records import Feedback
from repro.models.base import ReputationModel, StoreBackedModel
from repro.models.beta import BetaReputation
from repro.models.ebay import EbayModel
from repro.models.sporas import SporasModel
from repro.store import EventStore

#: model factories under test, keyed by a readable id
MODELS: Dict[str, Callable[[], StoreBackedModel]] = {
    "beta": BetaReputation,
    "beta_lam": lambda: BetaReputation(lam=0.9),
    "ebay": EbayModel,
    "sporas": SporasModel,
}

#: attributes holding each model's per-code fold state
STATE = {
    BetaReputation: ("_alpha", "_other"),
    EbayModel: ("_positives", "_negatives"),
    SporasModel: ("_state", "_ever_rater", "_ever_target"),
}

CHUNK_SIZES = (1, 7, 4096)
TARGETS = [f"svc-{i}" for i in range(12)]
RATERS = [f"c{i}" for i in range(10)]


def _rows(rng: random.Random, n: int, time: float, raters: List[str]):
    return [
        Feedback(
            rater=rng.choice(raters),
            target=rng.choice(TARGETS),
            time=time + i,
            rating=rng.random(),
        )
        for i in range(n)
    ]


def _fresh_fold(
    make: Callable[[], StoreBackedModel], model: StoreBackedModel
) -> StoreBackedModel:
    """A new model from *make* folded once from row 0 of *model*'s
    store — the from-scratch oracle."""
    fresh = make()
    fresh._store = model._store
    fresh._sync()
    assert fresh.folded_rows == len(model._store)
    return fresh


def _assert_same_state(
    model: StoreBackedModel, fresh: StoreBackedModel, exact: bool
) -> None:
    n = len(model._store.entities)
    if isinstance(model, SporasModel):
        assert model._coupled == fresh._coupled
        if model._coupled:
            return
    for attr in STATE[type(model)]:
        mine, theirs = getattr(model, attr), getattr(fresh, attr)
        # Capacity grows by doubling, so only the live prefix compares;
        # the slack past the entity table must still be empty.
        assert not np.any(mine[n:]) and not np.any(theirs[n:]), attr
        if exact:
            np.testing.assert_array_equal(mine[:n], theirs[:n], err_msg=attr)
        else:
            np.testing.assert_allclose(
                mine[:n], theirs[:n], rtol=0.0, atol=1e-9, err_msg=attr
            )


def _drive(
    make: Callable[[], StoreBackedModel],
    model: StoreBackedModel,
    rng: random.Random,
    steps: int,
    raters: List[str],
) -> None:
    """Random writes through every path, checking the fold at random
    query points (and always at the end)."""
    exact = not (isinstance(model, BetaReputation) and model.lam < 1.0)
    time = 0.0
    for step in range(steps):
        n = rng.randint(1, 9)
        if rng.random() < 0.3:
            # a rater-only newcomer grows the entity table between folds
            raters.append(f"new-{step}")
        op = rng.randrange(4)
        batch = _rows(rng, n, time, raters)
        if op == 0:
            for fb in batch:
                model.record(fb)
        elif op == 1:
            model.record_many(batch)
        elif op == 2:
            model.record_columns(
                [fb.rater for fb in batch],
                [fb.target for fb in batch],
                [fb.rating for fb in batch],
                [fb.time for fb in batch],
            )
        else:
            other = EventStore(chunk_size=rng.choice(CHUNK_SIZES))
            other.extend(
                [fb.rater for fb in batch],
                [fb.target for fb in batch],
                [fb.rating for fb in batch],
                [fb.time for fb in batch],
            )
            model._store.merge_from(other)
        time += n
        if rng.random() < 0.4 or step == steps - 1:
            queried = TARGETS + ["never-seen", raters[-1]]
            scores = model.score_many(queried)
            assert model.folded_rows == len(model._store)
            fresh = _fresh_fold(make, model)
            _assert_same_state(model, fresh, exact)
            if exact:
                assert scores == fresh.score_many(queried)
            assert scores == pytest.approx(
                ReputationModel.score_many(model, queried), abs=1e-9
            )


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_incremental_equals_from_scratch(name, chunk_size, global_random_seed):
    rng = random.Random(global_random_seed * 1009 + chunk_size)
    model = MODELS[name]()
    model._store = EventStore(chunk_size=chunk_size)
    _drive(MODELS[name], model, rng, steps=60, raters=list(RATERS))


@pytest.mark.parametrize(
    "coupling",
    [(TARGETS[0], "outsider"), ("outsider", RATERS[0])],
    ids=["target-turns-rater", "rater-turns-target"],
)
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_sporas_turns_coupled_mid_run(chunk_size, coupling, global_random_seed):
    """Disjoint raters/targets fold on the rounds kernel; the first row
    rated by a past target, or rating a past rater, couples the stream
    for good, and from then on scores equal the exact scalar replay."""
    rng = random.Random(global_random_seed)
    model = SporasModel()
    model._store = EventStore(chunk_size=chunk_size)
    raters = list(RATERS)
    _drive(SporasModel, model, rng, steps=20, raters=raters)
    assert not model._coupled
    rater, target = coupling
    model.record(Feedback(rater=rater, target=target, time=1e6, rating=0.9))
    queried = TARGETS + raters[:3] + ["outsider"]
    scalar = ReputationModel.score_many(model, queried)
    assert model.score_many(queried) == scalar
    assert model._coupled
    assert _fresh_fold(SporasModel, model)._coupled
    _drive(SporasModel, model, rng, steps=20, raters=raters)
    assert model._coupled
    assert model.score_many(queried) == ReputationModel.score_many(
        model, queried
    )


@pytest.mark.parametrize("name", sorted(MODELS))
def test_new_store_object_resets_fold(name):
    """Fold state belongs to one store object: attaching another (or a
    shorter one) starts over from its row 0."""
    model = MODELS[name]()
    model.record_many(_rows(random.Random(0), 30, 0.0, RATERS))
    model.score_many(TARGETS)
    assert model.folded_rows == 30
    replacement = EventStore()
    replacement.extend(["c0"], ["svc-1"], [1.0], [0.0])
    model._store = replacement
    assert model.folded_rows == 0
    fresh = MODELS[name]()
    fresh.record_columns(["c0"], ["svc-1"], [1.0], [0.0])
    assert model.score_many(TARGETS) == fresh.score_many(TARGETS)
    assert model.folded_rows == 1


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_columns_since_is_the_snapshot_suffix(chunk_size, global_random_seed):
    rng = random.Random(global_random_seed)
    store = EventStore(chunk_size=chunk_size)
    for step in range(25):
        batch = _rows(rng, rng.randint(1, 9), float(step), RATERS)
        if rng.random() < 0.5:
            for fb in batch:
                store.append(fb.rater, fb.target, fb.rating, fb.time)
        else:
            store.extend(
                [fb.rater for fb in batch],
                [fb.target for fb in batch],
                [fb.rating for fb in batch],
                [fb.time for fb in batch],
            )
        start = rng.randint(0, len(store) + 2)
        delta = store.columns_since(start)
        whole = store.snapshot()
        for col in ("rater", "target", "facet", "value", "time"):
            got, want = getattr(delta, col), getattr(whole, col)[start:]
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
    assert store.columns_since(0) is store.snapshot()
