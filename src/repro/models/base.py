"""The common interface every surveyed system implements.

A :class:`ReputationModel` consumes :class:`~repro.common.records.Feedback`
through :meth:`record` and answers score queries through :meth:`score`.
Personalized systems use the *perspective* argument (whose opinion is
being asked); global systems ignore it.  Scores are always on ``[0, 1]``
so models are directly comparable in the typology benchmark.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.common.ids import EntityId
from repro.common.records import Feedback, feedback_columns
from repro.obs.recorder import get_recorder
from repro.store import EventStore

if TYPE_CHECKING:  # imported lazily to avoid a core <-> models cycle
    from repro.core.typology import Typology


@dataclass(frozen=True)
class ScoredTarget:
    """One ranked candidate."""

    target: EntityId
    score: float


class ReputationModel(abc.ABC):
    """Base class for trust and reputation mechanisms.

    Class attributes:
        name: registry key (snake_case).
        typology: the system's Figure 4 classification.
        paper_ref: citation bracket from the survey's reference list.
    """

    name: str = "abstract"
    typology: Optional["Typology"] = None
    paper_ref: str = ""

    @abc.abstractmethod
    def record(self, feedback: Feedback) -> None:
        """Ingest one feedback report."""

    @abc.abstractmethod
    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        """Reputation/trust of *target* on ``[0, 1]``.

        Args:
            target: the entity being scored.
            perspective: the asking member, for personalized systems.
            now: current simulation time, for decay-aware systems.

        Entities without any evidence score the model's prior (usually
        0.5 — maximal uncertainty).
        """

    def record_many(self, feedbacks: Iterable[Feedback]) -> None:
        """Bulk-ingest feedback, equivalent to a :meth:`record` loop.

        Store-backed models override this with a single columnar
        :meth:`~repro.store.EventStore.extend`, which interns ids and
        seals chunks without a per-event Python frame; the resulting
        store is byte-identical to what looped appends produce.
        """
        for fb in feedbacks:
            self.record(fb)

    def record_columns(
        self,
        raters: Sequence[EntityId],
        targets: Sequence[EntityId],
        ratings: Sequence[float],
        times: Sequence[float],
    ) -> None:
        """Bulk-ingest overall ratings given as parallel columns.

        The columnar twin of :meth:`record_many` for rows that carry no
        facet detail and no backing interaction (e.g. a shard merge).
        Store-backed models append the columns with one
        :meth:`~repro.store.EventStore.extend` (their ``record_many``
        pivots into this); the default builds one
        :class:`~repro.common.records.Feedback` per row.
        """
        self.record_many(
            Feedback(rater=r, target=t, time=float(tm), rating=float(v))
            for r, t, v, tm in zip(raters, targets, ratings, times)
        )

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Scores for *targets*, in order.

        Three paths coexist, fastest first, and the property suites pin
        them together to 1e-9 under any record/query interleaving:

        1. **columnar kernel** — store-backed models override this with
           numpy reductions (bincount/lexsort) over the shared
           :class:`~repro.store.EventStore` snapshot, cached per store
           version;
        2. **scalar reference** — ported models keep their pre-columnar
           python batch path as ``score_many_reference`` (and some
           kernels fall back to it when their vectorization
           preconditions fail, e.g. Sporas with coupled rater/target
           sets);
        3. **base loop** — this default, one :meth:`score` call per
           target, the semantic ground truth.
        """
        return [self.score(t, perspective, now) for t in targets]

    def rank(
        self,
        candidates: Iterable[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[ScoredTarget]:
        """Candidates sorted best-first (ties broken by id for
        determinism).  Scoring goes through :meth:`score_many` so
        batched models pay their per-query overhead once per ranking."""
        candidates = list(candidates)
        rec = get_recorder()
        if rec.enabled:
            if now is not None:
                rec.advance(now)
            rec.observe(
                "model.rank.batch_size",
                len(candidates),
                labels=(self.name,),
                label_names=("model",),
            )
        scores = self.score_many(candidates, perspective, now)
        scored = [
            ScoredTarget(target=c, score=float(s))
            for c, s in zip(candidates, scores)
        ]
        scored.sort(key=lambda st: (-st.score, st.target))
        return scored

    def best(
        self,
        candidates: Iterable[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> Optional[EntityId]:
        ranking = self.rank(candidates, perspective, now)
        return ranking[0].target if ranking else None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class StoreBackedModel(ReputationModel):
    """A model whose evidence is one float-time store of overall ratings.

    Subclasses create ``self._store`` and read it through their
    kernels; every write path lands in it: :meth:`record` appends one
    row, :meth:`record_many` pivots into :meth:`record_columns`, which
    is a single :meth:`~repro.store.EventStore.extend`.
    """

    _store: EventStore

    def record(self, feedback: Feedback) -> None:
        self._store.append(
            feedback.rater, feedback.target, feedback.rating, feedback.time
        )

    def record_many(self, feedbacks: Iterable[Feedback]) -> None:
        self.record_columns(*feedback_columns(feedbacks))

    def record_columns(
        self,
        raters: Sequence[EntityId],
        targets: Sequence[EntityId],
        ratings: Sequence[float],
        times: Sequence[float],
    ) -> None:
        self._store.extend(raters, targets, ratings, times)
