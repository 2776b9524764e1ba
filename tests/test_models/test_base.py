"""Tests for the ReputationModel base-class defaults."""

from typing import Optional

import pytest

from repro.common.ids import EntityId
from repro.common.records import feedback_columns
from repro.core.registry import default_registry
from repro.models.base import ReputationModel, ScoredTarget

from tests.conftest import feedback


class FixedScores(ReputationModel):
    """Minimal model: scores from a dict, records counted."""

    name = "fixed"

    def __init__(self, scores):
        self.scores = scores
        self.recorded = []

    def record(self, fb) -> None:
        self.recorded.append(fb)

    def score(self, target: EntityId, perspective=None,
              now: Optional[float] = None) -> float:
        return self.scores.get(target, 0.5)


class TestBaseDefaults:
    def test_record_many(self):
        model = FixedScores({})
        model.record_many([feedback(), feedback(rater="c1")])
        assert len(model.recorded) == 2

    def test_record_columns_builds_feedback(self):
        model = FixedScores({})
        model.record_columns(["c0", "c1"], ["s", "t"], [0.25, 1.0], [1.0, 2.0])
        assert [(fb.rater, fb.target, fb.rating, fb.time) for fb in model.recorded] == [
            ("c0", "s", 0.25, 1.0),
            ("c1", "t", 1.0, 2.0),
        ]

    def test_rank_sorted_desc_with_deterministic_ties(self):
        model = FixedScores({"a": 0.5, "b": 0.9, "c": 0.5})
        ranking = model.rank(["c", "a", "b"])
        assert ranking == [
            ScoredTarget("b", 0.9),
            ScoredTarget("a", 0.5),
            ScoredTarget("c", 0.5),
        ]

    def test_best(self):
        model = FixedScores({"a": 0.2, "b": 0.7})
        assert model.best(["a", "b"]) == "b"
        assert model.best([]) is None

    def test_rank_empty(self):
        assert FixedScores({}).rank([]) == []

    def test_repr(self):
        assert "FixedScores" in repr(FixedScores({}))


@pytest.mark.parametrize(
    "name", ["beta", "ebay", "sporas", "histos", "peertrust", "eigentrust"]
)
def test_record_columns_matches_record_many(name):
    """Columnar ingest (the shard merge's path) scores like record_many
    of interaction-free feedback."""
    stream = [
        feedback(rater=f"c{i % 4}", target=f"s{i % 3}", rating=(i % 5) / 4,
                 time=float(i))
        for i in range(30)
    ]
    by_feedback = default_registry(rng_seed=0).create(name)
    by_feedback.record_many(stream)
    by_columns = default_registry(rng_seed=0).create(name)
    by_columns.record_columns(*feedback_columns(stream))
    targets = ["s0", "s1", "s2"]
    assert by_columns.score_many(targets, now=30.0) == by_feedback.score_many(
        targets, now=30.0
    )
