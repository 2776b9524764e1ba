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

import numpy as np

from repro.common.ids import EntityId
from repro.common.records import Feedback, feedback_columns
from repro.obs.recorder import get_recorder
from repro.store import ColumnSet, EventStore

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
           numpy reductions over the shared
           :class:`~repro.store.EventStore`; beta, ebay and sporas fold
           only the rows appended since their last query into running
           state (:meth:`StoreBackedModel._sync`, with the from-scratch
           fold as oracle), the rest reduce the snapshot per store
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

    **The fold contract.**  Models with an incremental kernel keep
    model-private running state and implement :meth:`_reset_fold`
    (empty state) and :meth:`_fold` (absorb a delta of rows, in order).
    :meth:`_sync` is the one "fold what's new" step: it remembers which
    store object it folded and how many of its rows, hands only the
    rows appended since to ``_fold`` (read with
    :meth:`~repro.store.EventStore.columns_since`), and starts over
    when the store object is replaced or has fewer rows.  The
    from-scratch result — the same ``_fold`` applied to
    ``columns_since(0)`` on reset state — is the oracle every
    incremental state must equal.
    """

    _store: EventStore
    #: the store object and row count the fold state covers
    _fold_store: Optional[EventStore] = None
    _fold_rows = 0

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

    # -- incremental fold ----------------------------------------------
    @property
    def folded_rows(self) -> int:
        """Rows of the current store the fold state covers."""
        return self._fold_rows if self._fold_store is self._store else 0

    def _sync(self) -> None:
        """Fold the rows appended since the last call into the state."""
        store = self._store
        n = len(store)
        if self._fold_store is not store or n < self._fold_rows:
            self._reset_fold()
            self._fold_store = store
            self._fold_rows = 0
        if n > self._fold_rows:
            self._fold(store.columns_since(self._fold_rows))
            self._fold_rows = n

    def _reset_fold(self) -> None:
        """Drop the fold state (models with an incremental kernel)."""
        raise NotImplementedError

    def _fold(self, delta: ColumnSet) -> None:
        """Absorb *delta*'s rows, in order, into the fold state."""
        raise NotImplementedError

    def _gathered(
        self, targets: Sequence[EntityId], *states: np.ndarray
    ) -> List[np.ndarray]:
        """Each per-code *state* array gathered at *targets*; call after
        :meth:`_sync`.  Ids the store has never seen carry code -1,
        which reads the spare zero slot :func:`grown` keeps last."""
        codes = self._store.entities.codes(targets)
        return [state[codes] for state in states]


def grown(state: np.ndarray, size: int) -> np.ndarray:
    """*state* zero-padded past *size* entries, growing by doubling so
    per-fold entity-table growth costs amortized O(1).  At least one
    spare slot past *size* is kept, and stays zero (folds write only
    codes below *size*), so a gather at code -1 reads 0."""
    if len(state) > size:
        return state
    out = np.zeros(max(size + 1, 2 * len(state)), dtype=state.dtype)
    out[: len(state)] = state
    return out
