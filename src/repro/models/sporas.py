"""Sporas (Zacharia, Moukas & Maes) — centralized / person-agent / global.

Reputation evolves recursively with each new rating:

.. math::

    R_{i+1} = R_i + \\frac{1}{\\theta} \\cdot \\Phi(R_i) \\cdot
              R^{other}_{i+1} \\cdot (W_{i+1} - E_{i+1})

where :math:`E = R_i / D` is the expected rating, :math:`W` the received
rating, :math:`R^{other}` the (normalized) reputation of the rater, and
:math:`\\Phi(R) = 1 - 1/(1 + e^{-(R - D)/\\sigma})` the damping that
slows changes for very reputable users.  Reputation lives in
``[0, D]``; new users start at 0 (so identity-switching cannot help —
the design goal Zacharia emphasizes).

A *reliability deviation* (RD) tracks rating volatility via an
exponentially-weighted squared prediction error.

Events live in the columnar :class:`~repro.store.EventStore`; the
scalar path replays the recursion lazily.  The columnar kernel exploits
that the recursion couples targets only *through raters*: when no
entity is both a rater and a target (the common web-service shape —
consumers rate services), every rater weight is the newcomer floor and
the per-target recursions are independent, so the kernel runs them as
vectorized *rounds* — round k applies every target's k-th rating at
once.  Coupled streams fall back to the exact scalar replay.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import StoreBackedModel
from repro.store import EventStore


class SporasModel(StoreBackedModel):
    """Sporas recursive reputation.

    Args:
        d: maximum reputation (Zacharia uses 3000).
        theta: effective number of ratings remembered (>1).
        sigma: damping slope of :math:`\\Phi`.
        rd_memory: EWMA factor for the reliability deviation.
    """

    name = "sporas"
    typology = Typology(
        Architecture.CENTRALIZED, Subject.PERSON_AGENT, Scope.GLOBAL
    )
    paper_ref = "[37]"

    #: rater-weight floor for newcomers (see :meth:`record`)
    NEWCOMER_FLOOR = 0.1

    def __init__(
        self,
        d: float = 3000.0,
        theta: float = 10.0,
        sigma: Optional[float] = None,
        rd_memory: float = 0.9,
    ) -> None:
        if d <= 0:
            raise ConfigurationError("d must be positive")
        if theta <= 1:
            raise ConfigurationError("theta must be > 1")
        if not 0.0 < rd_memory < 1.0:
            raise ConfigurationError("rd_memory must be in (0, 1)")
        self.d = d
        self.theta = theta
        self.sigma = sigma if sigma is not None else d / 10.0
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        self.rd_memory = rd_memory
        self._store = EventStore()
        #: scalar reference state keyed by entity code, replayed lazily
        self._reputation: Dict[int, float] = {}
        self._rd: Dict[int, float] = {}
        self._count: Dict[int, int] = {}
        self._replay_pos = 0
        #: columnar kernel cache: (version, reputations | None)
        self._kernel: Optional[Tuple[int, Optional[np.ndarray]]] = None

    def _phi(self, reputation: float) -> float:
        return 1.0 - 1.0 / (1.0 + math.exp(-(reputation - self.d) / self.sigma))

    # -- evidence ------------------------------------------------------
    def _advance(self) -> None:
        """Replay the Zacharia recursion over unconsumed store rows —
        the exact scalar reference.

        Rater weight: at least a newcomer's influence, normalized to
        [newcomer_floor, 1].  Zacharia multiplies by R_other/D; a pure
        zero would let fresh raters have no effect at bootstrap, so a
        small floor keeps the system live.
        """
        store = self._store
        n = len(store)
        if self._replay_pos == n:
            return
        reputation = self._reputation
        rd = self._rd
        count = self._count
        d = self.d
        inv_theta = 1.0 / self.theta
        rd_memory = self.rd_memory
        floor = self.NEWCOMER_FLOOR
        # reprolint: disable=R007 — scalar reference is the per-row replay
        for rater, target, _facet, value, _time in store.iter_rows(
            self._replay_pos
        ):
            current = reputation.get(target, 0.0)
            rater_weight = max(reputation.get(rater, 0.0) / d, floor)
            expected = current / d
            updated = current + inv_theta * self._phi(current) * (
                rater_weight * d
            ) * (value - expected)
            reputation[target] = max(0.0, min(d, updated))
            error = (value - expected) ** 2
            prev_rd = rd.get(target, 0.25)
            rd[target] = rd_memory * prev_rd + (1 - rd_memory) * error
            count[target] = count.get(target, 0) + 1
        self._replay_pos = n

    # -- accessors (scalar reference) ----------------------------------
    def _code(self, target: EntityId) -> int:
        return self._store.entities.code(target)

    def reputation(self, target: EntityId) -> float:
        """Raw Sporas reputation on ``[0, D]``."""
        self._advance()
        return self._reputation.get(self._code(target), 0.0)

    def reliability_deviation(self, target: EntityId) -> float:
        """Volatility of *target*'s ratings (lower = more reliable)."""
        self._advance()
        return math.sqrt(self._rd.get(self._code(target), 0.25))

    def ratings_seen(self, target: EntityId) -> int:
        self._advance()
        return self._count.get(self._code(target), 0)

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        return self.reputation(target) / self.d

    def score_many_reference(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """The pre-columnar batched path (hoisted gathers over the
        replayed recursion state) — kept as the parity/bench reference."""
        self._advance()
        reputation = self._reputation
        code = self._store.entities.code
        d = self.d
        return [
            reputation.get(code(target), 0.0) / d for target in targets
        ]

    # -- columnar kernel -----------------------------------------------
    def _kernel_array(self) -> Optional[np.ndarray]:
        """Dense per-code reputations from the vectorized-rounds kernel,
        or ``None`` when the stream couples raters and targets (then the
        exact scalar replay is the only correct evaluation order)."""
        store = self._store
        version = store.version
        cached = self._kernel
        if cached is not None and cached[0] == version:
            return cached[1]
        columns = store.snapshot()
        result: Optional[np.ndarray]
        if not columns.n:
            result = np.zeros(max(len(store.entities), 1))
        elif np.intersect1d(
            np.unique(columns.rater), np.unique(columns.target)
        ).size:
            result = None  # coupled stream: rater weights depend on order
        else:
            # Disjoint raters/targets: every rater keeps reputation 0, so
            # rater_weight is the constant newcomer floor and targets
            # evolve independently.  Group rows by target (stable, so
            # within-group order = event order), then sweep rank rounds:
            # round k fancy-gathers the state of every target receiving
            # its k-th rating, applies the update, and scatters back.
            index = store.by_target()
            ranks = index.ranks()
            sorted_targets = columns.target[index.order]
            round_order = np.lexsort((sorted_targets, ranks))
            rows = index.order[round_order]
            round_ranks = ranks[round_order]
            targets_by_round = columns.target[rows]
            values_by_round = columns.value[rows]
            max_rank = int(round_ranks[-1])
            bounds = np.searchsorted(
                round_ranks, np.arange(max_rank + 2)
            )
            d = self.d
            gain = (1.0 / self.theta) * (self.NEWCOMER_FLOOR * d)
            inv_sigma = 1.0 / self.sigma
            state = np.zeros(max(len(store.entities), 1))
            for k in range(max_rank + 1):
                lo, hi = int(bounds[k]), int(bounds[k + 1])
                tc = targets_by_round[lo:hi]
                current = state[tc]
                phi = 1.0 - 1.0 / (
                    1.0 + np.exp(-(current - d) * inv_sigma)
                )
                updated = current + gain * phi * (
                    values_by_round[lo:hi] - current / d
                )
                np.clip(updated, 0.0, d, out=updated)
                state[tc] = updated
            result = state
        self._kernel = (version, result)
        return result

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch reputations from the rounds kernel (gather + divide);
        coupled streams use the scalar-replay reference instead."""
        state = self._kernel_array()
        if state is None:
            return self.score_many_reference(targets, perspective, now)
        codes = self._store.entities.codes(targets)
        known = codes >= 0
        safe = np.where(known, codes, 0)
        scaled = np.where(known, state[safe], 0.0) / self.d
        result: List[float] = scaled.tolist()
        return result
