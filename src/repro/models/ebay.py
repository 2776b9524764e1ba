"""eBay's feedback forum — centralized / person-agent / global.

The canonical "simple and effective" global mechanism (paper Sections 4
and 5).  Buyers leave +1 / 0 / −1 feedback; the site shows a cumulative
feedback *score* (sum), a *positive percentage*, and recent-window
breakdowns.  :meth:`score` returns the Laplace-smoothed positive
fraction so the model is comparable to others on ``[0, 1]``.

Each report is a **single** append to the columnar
:class:`~repro.store.EventStore` (the former entry-list + running-totals
dual bookkeeping is gone): the scalar path replays signed counts lazily
off the store rows, recent-window summaries threshold the per-target
time column slice, and ``score_many`` reduces the sign masks with
``np.bincount`` — all counts are integers, so every path is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import StoreBackedModel
from repro.store import EventStore, group_counts


@dataclass(frozen=True)
class FeedbackSummary:
    """What an eBay member page shows."""

    score: int
    positives: int
    neutrals: int
    negatives: int

    @property
    def positive_percentage(self) -> float:
        judged = self.positives + self.negatives
        if judged == 0:
            return 100.0
        return 100.0 * self.positives / judged


class EbayModel(StoreBackedModel):
    """eBay feedback: signed counts with recent-window views.

    Ratings on ``[0, 1]`` are ternarized: above ``positive_threshold``
    counts +1, below ``negative_threshold`` counts −1, else neutral.
    """

    name = "ebay"
    typology = Typology(
        Architecture.CENTRALIZED, Subject.PERSON_AGENT, Scope.GLOBAL
    )
    paper_ref = "[7]"

    def __init__(
        self,
        positive_threshold: float = 2.0 / 3.0,
        negative_threshold: float = 1.0 / 3.0,
    ) -> None:
        if not 0.0 <= negative_threshold < positive_threshold <= 1.0:
            raise ConfigurationError(
                "need 0 <= negative_threshold < positive_threshold <= 1"
            )
        self.positive_threshold = positive_threshold
        self.negative_threshold = negative_threshold
        self._store = EventStore()
        #: scalar reference state keyed by entity code:
        #: [positives, negatives, total], replayed lazily off the store
        self._totals: Dict[int, List[int]] = {}
        self._replay_pos = 0
        #: columnar kernel cache: (version, positives, negatives) arrays
        self._kernel: Optional[Tuple[int, np.ndarray, np.ndarray]] = None

    def _sign(self, rating: float) -> int:
        if rating > self.positive_threshold:
            return 1
        if rating < self.negative_threshold:
            return -1
        return 0

    # -- evidence ------------------------------------------------------
    def _advance(self) -> None:
        """Replay signed-count accumulation over unconsumed rows — the
        exact scalar reference (signs re-derived from stored ratings)."""
        store = self._store
        n = len(store)
        if self._replay_pos == n:
            return
        totals = self._totals
        positive_threshold = self.positive_threshold
        negative_threshold = self.negative_threshold
        # reprolint: disable=R007 — scalar reference is the per-row replay
        for _rater, target, _facet, value, _time in store.iter_rows(
            self._replay_pos
        ):
            counts = totals.get(target)
            if counts is None:
                counts = [0, 0, 0]
                totals[target] = counts
            if value > positive_threshold:
                counts[0] += 1
            elif value < negative_threshold:
                counts[1] += 1
            counts[2] += 1
        self._replay_pos = n

    def _totals_for(self, target: EntityId) -> Tuple[int, int, int]:
        self._advance()
        code = self._store.entities.code(target)
        if code < 0:
            return (0, 0, 0)
        counts = self._totals.get(code)
        if counts is None:
            return (0, 0, 0)
        return (counts[0], counts[1], counts[2])

    # -- member page ---------------------------------------------------
    def summary(
        self,
        target: EntityId,
        window: Optional[float] = None,
        now: Optional[float] = None,
    ) -> FeedbackSummary:
        """The member-page numbers, optionally restricted to a recent
        window (eBay's 1/6/12-month columns)."""
        if window is not None:
            if now is None:
                raise ConfigurationError("window requires now")
            store = self._store
            code = store.entities.code(target)
            rows = store.by_target().rows(code) if code >= 0 else None
            if rows is None or not len(rows):
                positives = negatives = total = 0
            else:
                columns = store.snapshot()
                recent = rows[now - columns.time[rows] <= window]
                values = columns.value[recent]
                positives = int(
                    np.count_nonzero(values > self.positive_threshold)
                )
                negatives = int(
                    np.count_nonzero(values < self.negative_threshold)
                )
                total = len(recent)
        else:
            positives, negatives, total = self._totals_for(target)
        return FeedbackSummary(
            score=positives - negatives,
            positives=positives,
            neutrals=total - positives - negatives,
            negatives=negatives,
        )

    # -- scalar reference ----------------------------------------------
    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        positives, negatives, _total = self._totals_for(target)
        # Laplace smoothing: no evidence scores 0.5.
        return (positives + 1.0) / (positives + negatives + 2.0)

    def score_many_reference(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """The pre-columnar batched path (hoisted gathers over the
        replayed running totals) — kept as the parity/bench reference."""
        self._advance()
        totals = self._totals
        code = self._store.entities.code
        zero = (0, 0, 0)
        out: List[float] = []
        append = out.append
        for target in targets:
            positives, negatives, _total = totals.get(code(target), zero)
            append((positives + 1.0) / (positives + negatives + 2.0))
        return out

    # -- columnar kernel -----------------------------------------------
    def _kernel_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense per-code (positives, negatives) counts reduced from the
        value column, cached per store version."""
        store = self._store
        version = store.version
        cached = self._kernel
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        columns = store.snapshot()
        size = max(len(store.entities), 1)
        positives = group_counts(
            columns.target[columns.value > self.positive_threshold], size
        )
        negatives = group_counts(
            columns.target[columns.value < self.negative_threshold], size
        )
        self._kernel = (version, positives, negatives)
        return positives, negatives

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch Laplace-smoothed positive fractions from sign-mask
        bincounts (integer counts — exact by construction)."""
        positives, negatives = self._kernel_arrays()
        codes = self._store.entities.codes(targets)
        known = codes >= 0
        safe = np.where(known, codes, 0)
        pos = np.where(known, positives[safe], 0).astype(np.float64)
        neg = np.where(known, negatives[safe], 0).astype(np.float64)
        result: List[float] = ((pos + 1.0) / (pos + neg + 2.0)).tolist()
        return result
