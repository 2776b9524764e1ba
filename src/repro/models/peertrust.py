"""PeerTrust (Xiong & Liu) — decentralized / person-agent / global.

The general trust metric (their eq. 3):

.. math::

    T(u) = \\alpha \\cdot
           \\frac{\\sum_i S(u,i) \\cdot Cr(p(u,i)) \\cdot TF(u,i)}
                {\\sum_i Cr(p(u,i)) \\cdot TF(u,i)}
           + \\beta \\cdot CF(u)

with five factors: per-transaction **satisfaction** S, **credibility**
Cr of the rater, **transaction context** TF (e.g. transaction size),
an additive **community context** CF (e.g. rewarding peers who file
feedback), and the weights α, β.

Both published credibility measures are implemented:

* **PSM** — peer-feedback similarity: Cr(v) from the similarity of v's
  rating vector to the evaluator's over commonly-rated peers (robust to
  collusion: colluders' skewed vectors diverge from honest ones);
* **TVM** — trust-value: Cr(v) is v's own (recursively damped) trust.

Events live in the columnar :class:`~repro.store.EventStore` (one
append per report; the transaction-context factor, which needs the
interaction object, is captured eagerly in a row-aligned side column).
The scalar path replays the transaction/filed structures lazily — the
exact reference.  ``score_many`` is a columnar kernel: windowed rows
via one lexsort, PSM rating vectors and similarities via pair-key
``np.bincount`` reductions, and the TVM recursion as per-depth
vectorized sweeps over all entities at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.records import Feedback, feedback_columns
from repro.common.simtime import from_ticks, ticks_array, to_ticks
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel
from repro.store import EventStore


class CredibilityMeasure(enum.Enum):
    PSM = "feedback_similarity"
    TVM = "trust_value"


@dataclass(frozen=True)
class _Transaction:
    rater: EntityId
    satisfaction: float
    context: float
    time: float


def _transaction_context(feedback: Feedback) -> float:
    """TF: successful, observation-rich interactions weigh more than
    thin ones; reports without a backing interaction weigh 1."""
    if feedback.interaction is None:
        return 1.0
    return 0.5 + 0.5 * min(
        1.0, len(feedback.interaction.observations) / 3.0
    )


class PeerTrustModel(ReputationModel):
    """PeerTrust's five-factor metric.

    Args:
        credibility: PSM (default, collusion-resistant) or TVM.
        alpha / beta: weights of the satisfaction term and the community
            context term (alpha + beta should be 1).
        window: number of most recent transactions evaluated.
        tvm_depth: recursion damping for the TVM measure.
    """

    name = "peertrust"
    typology = Typology(
        Architecture.DECENTRALIZED, Subject.PERSON_AGENT, Scope.GLOBAL
    )
    paper_ref = "[33]"

    def __init__(
        self,
        credibility: CredibilityMeasure = CredibilityMeasure.PSM,
        alpha: float = 0.9,
        beta: float = 0.1,
        window: int = 50,
        tvm_depth: int = 2,
    ) -> None:
        if alpha < 0 or beta < 0 or alpha + beta <= 0:
            raise ConfigurationError("alpha/beta must be non-negative, sum > 0")
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        if tvm_depth < 0:
            raise ConfigurationError("tvm_depth must be >= 0")
        self.credibility = credibility
        self.alpha = alpha
        self.beta = beta
        self.window = window
        self.tvm_depth = tvm_depth
        #: int64 tick times end to end — the shard exchange format —
        #: so replayed windows never round-trip through float.
        self._store = EventStore(time_dtype="int64")
        #: row-aligned transaction-context column (TF needs the
        #: interaction object, so it is captured at record time)
        self._ctx: List[float] = []
        #: scalar reference state keyed by entity code, replayed lazily:
        #: target -> [(rater, satisfaction, context, time), ...]
        self._tx: Dict[int, List[Tuple[int, float, float, float]]] = {}
        #: rater -> subject -> filed satisfactions (for PSM)
        self._filed: Dict[int, Dict[int, List[float]]] = {}
        self._filed_count: Dict[int, int] = {}
        self._replay_pos = 0
        #: columnar kernel caches (base per version, scores per
        #: (version, perspective code))
        self._kernel_base: Optional[Tuple[int, Dict[str, np.ndarray]]] = None
        self._kernel_scores: Dict[Optional[int], np.ndarray] = {}
        self._kernel_scores_key = -1

    # -- evidence ----------------------------------------------------------
    def record(self, feedback: Feedback) -> None:
        self._ctx.append(_transaction_context(feedback))
        self._store.append(
            feedback.rater,
            feedback.target,
            feedback.rating,
            to_ticks(feedback.time),
        )

    def record_many(self, feedbacks: Iterable[Feedback]) -> None:
        batch = list(feedbacks)
        self.record_columns(
            *feedback_columns(batch),
            contexts=[_transaction_context(fb) for fb in batch],
        )

    def record_columns(
        self,
        raters: Sequence[EntityId],
        targets: Sequence[EntityId],
        ratings: Sequence[float],
        times: Sequence[float],
        contexts: Optional[Sequence[float]] = None,
    ) -> None:
        """Columnar ingest; rows without *contexts* carry no interaction,
        so their transaction context is the neutral 1.0."""
        self._store.extend(raters, targets, ratings, ticks_array(times))
        self._ctx.extend([1.0] * len(ratings) if contexts is None else contexts)

    def _advance(self) -> None:
        """Replay transaction/filed accumulation over unconsumed store
        rows — the exact scalar reference."""
        store = self._store
        n = len(store)
        if self._replay_pos == n:
            return
        tx = self._tx
        filed = self._filed
        filed_count = self._filed_count
        ctx = self._ctx
        row = self._replay_pos
        # reprolint: disable=R007 — scalar reference is the per-row replay
        for rater, target, _facet, value, time in store.iter_rows(row):
            tx.setdefault(target, []).append(
                (rater, value, ctx[row], time)
            )
            filed.setdefault(rater, {}).setdefault(target, []).append(value)
            filed_count[rater] = filed_count.get(rater, 0) + 1
            row += 1
        self._replay_pos = n

    @property
    def _transactions(self) -> Dict[EntityId, List[_Transaction]]:
        """String-keyed view of the replayed transaction log (kept for
        introspection/tests; internal code uses the code-keyed state)."""
        self._advance()
        value_of = self._store.entities.value
        return {
            value_of(target): [
                _Transaction(value_of(r), sat, context, from_ticks(time))
                for r, sat, context, time in rows
            ]
            for target, rows in self._tx.items()
        }

    # -- credibility -------------------------------------------------------
    def feedback_similarity(
        self, evaluator: Optional[EntityId], rater: EntityId
    ) -> float:
        """PSM: root-mean-square similarity of filed ratings.

        Compared against *evaluator*'s vector when it shares rated
        subjects with *rater*; otherwise against the community mean
        vector (Xiong & Liu's fallback for sparse overlap).
        """
        self._advance()
        code = self._store.entities.code
        return self._similarity(
            None if evaluator is None else code(evaluator), code(rater)
        )

    def _similarity(self, evaluator: Optional[int], rater: int) -> float:
        rater_vector = {
            subject: sum(vals) / len(vals)
            for subject, vals in self._filed.get(rater, {}).items()
        }
        if not rater_vector:
            return 0.5
        reference: Dict[int, float] = {}
        if evaluator is not None and evaluator != rater:
            reference = {
                subject: sum(vals) / len(vals)
                for subject, vals in self._filed.get(evaluator, {}).items()
            }
        common = sorted(set(rater_vector) & set(reference))
        if not common:
            # Community mean fallback.
            pooled: Dict[int, List[float]] = {}
            for filed in self._filed.values():
                for subject, vals in filed.items():
                    pooled.setdefault(subject, []).append(
                        sum(vals) / len(vals)
                    )
            reference = {
                s: sum(vs) / len(vs) for s, vs in pooled.items()
            }
            common = sorted(set(rater_vector) & set(reference))
            if not common:
                return 0.5
        squared = sum(
            (rater_vector[s] - reference[s]) ** 2 for s in common
        ) / len(common)
        return 1.0 - math.sqrt(squared)

    def _credibility(
        self,
        evaluator: Optional[int],
        rater: int,
        depth: int,
        memo: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> float:
        """Cr of *rater*; *memo* (one per batch query) caches values
        across the candidate set — credibility depends on the rater,
        not on which target is being scored."""
        if memo is not None:
            key = (rater, depth)
            cached = memo.get(key)
            if cached is not None:
                return cached
        if self.credibility is CredibilityMeasure.PSM:
            value = max(0.0, self._similarity(evaluator, rater))
        elif depth <= 0:
            value = 0.5
        else:
            value = self._trust(rater, evaluator, depth - 1, memo)
        if memo is not None:
            memo[(rater, depth)] = value
        return value

    # -- the metric --------------------------------------------------------
    def community_context(self, peer: EntityId) -> float:
        """CF: reward for contributing feedback (saturating)."""
        self._advance()
        filed = self._filed_count.get(self._store.entities.code(peer), 0)
        return filed / (filed + 5.0)

    def _trust(
        self,
        target: int,
        perspective: Optional[int],
        depth: int,
        memo: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> float:
        transactions = self._tx.get(target, [])
        recent = sorted(transactions, key=lambda t: t[3])[-self.window:]
        if not recent:
            base = 0.5
        else:
            numerator = 0.0
            denominator = 0.0
            for rater, satisfaction, context, _time in recent:
                cr = self._credibility(perspective, rater, depth, memo)
                weight = cr * context
                numerator += satisfaction * weight
                denominator += weight
            base = numerator / denominator if denominator > 0 else 0.5
        filed = self._filed_count.get(target, 0)
        total = self.alpha + self.beta
        value = (
            self.alpha * base + self.beta * (filed / (filed + 5.0))
        ) / total
        return min(1.0, max(0.0, value))

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        self._advance()
        code = self._store.entities.code
        return self._trust(
            code(target),
            None if perspective is None else code(perspective),
            self.tvm_depth,
        )

    def score_many_reference(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """The pre-columnar batched path: per-target scalar trust with
        one shared credibility memo — kept as the parity/bench
        reference.  (PSM similarity and the TVM recursion depend on the
        rater being weighed, not on the candidate being scored, so one
        memo serves the whole candidate set.)"""
        self._advance()
        code = self._store.entities.code
        persp = None if perspective is None else code(perspective)
        memo: Dict[Tuple[int, int], float] = {}
        return [
            self._trust(code(t), persp, self.tvm_depth, memo)
            for t in targets
        ]

    # -- columnar kernel ---------------------------------------------------
    def _base_arrays(self) -> Dict[str, np.ndarray]:
        """Perspective-independent reductions, cached per version:
        windowed transaction rows, pair rating vectors, community
        reference vector, and the CF array."""
        store = self._store
        version = store.version
        cached = self._kernel_base
        if cached is not None and cached[0] == version:
            return cached[1]
        columns = store.snapshot()
        size = max(len(store.entities), 1)
        # Last `window` rows per target in time order (lexsort is
        # stable, so time ties keep append order — exactly the scalar
        # sorted()[-window:] selection).
        index = store.by_target_time()
        sizes = index.group_sizes()
        per_row_size = np.repeat(sizes, sizes)
        keep = index.ranks() >= per_row_size - self.window
        win_rows = index.order[keep]
        ctx = np.asarray(self._ctx, dtype=np.float64)
        # Per-(rater, subject) mean filed satisfaction — the PSM rating
        # vectors.  upairs is ascending, so a rater's subjects appear in
        # ascending code order (= the scalar's sorted(common) order).
        upairs, inverse = np.unique(
            columns.pair_keys(), return_inverse=True
        )
        pair_counts = np.bincount(inverse).astype(np.float64)
        pair_sums = np.bincount(inverse, weights=columns.value)
        pair_mean = pair_sums / np.maximum(pair_counts, 1.0)
        pair_rater = (upairs >> 32).astype(np.int64)
        pair_subject = (upairs & 0xFFFFFFFF).astype(np.int64)
        # Community reference: per subject, mean of the rater means.
        comm_cnt = np.bincount(pair_subject, minlength=size)
        comm_sum = np.bincount(
            pair_subject, weights=pair_mean, minlength=size
        )
        comm_mean = comm_sum / np.maximum(comm_cnt, 1)
        filed = np.bincount(columns.rater, minlength=size)
        base = {
            "win_targets": columns.target[win_rows],
            "win_raters": columns.rater[win_rows],
            "win_sat": columns.value[win_rows],
            "win_ctx": ctx[win_rows] if len(ctx) else ctx,
            "pair_rater": pair_rater,
            "pair_subject": pair_subject,
            "pair_mean": pair_mean,
            "comm_mean": comm_mean,
            "cf": filed / (filed + 5.0),
        }
        self._kernel_base = (version, base)
        if self._kernel_scores_key != version:
            self._kernel_scores = {}
            self._kernel_scores_key = version
        return base

    def _psm_credibility(
        self, base: Dict[str, np.ndarray], perspective: Optional[int]
    ) -> np.ndarray:
        """Cr(v) for every entity code under PSM: similarity against
        the evaluator's vector over shared subjects, community-mean
        fallback otherwise, floored at 0."""
        size = len(base["cf"])
        pair_rater = base["pair_rater"]
        pair_subject = base["pair_subject"]
        pair_mean = base["pair_mean"]
        reference = np.full(size, np.nan)
        if perspective is not None and perspective >= 0:
            own = pair_rater == perspective
            reference[pair_subject[own]] = pair_mean[own]
        ref_vals = reference[pair_subject]
        # The evaluator compares others against itself, never itself.
        valid = ~np.isnan(ref_vals)
        if perspective is not None:
            valid &= pair_rater != perspective
        diff_sq = np.where(valid, (pair_mean - ref_vals) ** 2, 0.0)
        cnt1 = np.bincount(
            pair_rater, weights=valid.astype(np.float64), minlength=size
        )
        ssq1 = np.bincount(pair_rater, weights=diff_sq, minlength=size)
        comm_vals = base["comm_mean"][pair_subject]
        cnt2 = np.bincount(pair_rater, minlength=size).astype(np.float64)
        ssq2 = np.bincount(
            pair_rater, weights=(pair_mean - comm_vals) ** 2, minlength=size
        )
        sim_eval = 1.0 - np.sqrt(ssq1 / np.maximum(cnt1, 1.0))
        sim_comm = 1.0 - np.sqrt(ssq2 / np.maximum(cnt2, 1.0))
        sim = np.where(
            cnt1 > 0, sim_eval, np.where(cnt2 > 0, sim_comm, 0.5)
        )
        return np.maximum(0.0, sim)

    def _trust_sweep(
        self, base: Dict[str, np.ndarray], cr_rows: np.ndarray
    ) -> np.ndarray:
        """One application of eq. 3 over all entities at once, given
        per-windowed-row credibilities (bincount adds contributions in
        the scalar's time order — bit-identical accumulation)."""
        size = len(base["cf"])
        weights = cr_rows * base["win_ctx"]
        num = np.bincount(
            base["win_targets"],
            weights=base["win_sat"] * weights,
            minlength=size,
        )
        den = np.bincount(
            base["win_targets"], weights=weights, minlength=size
        )
        metric = np.where(den > 0, num / np.maximum(den, 1e-300), 0.5)
        total = self.alpha + self.beta
        value = (self.alpha * metric + self.beta * base["cf"]) / total
        return np.clip(value, 0.0, 1.0)

    def _kernel_trust(self, perspective: Optional[int]) -> np.ndarray:
        base = self._base_arrays()
        cached = self._kernel_scores.get(perspective)
        if cached is not None:
            return cached
        if self.credibility is CredibilityMeasure.PSM:
            cr = self._psm_credibility(base, perspective)
            trust = self._trust_sweep(base, cr[base["win_raters"]])
        else:
            # TVM: trust at depth d weighs raters by their depth-(d-1)
            # trust, grounded at Cr = 0.5 for depth 0.
            trust = self._trust_sweep(
                base, np.full(len(base["win_raters"]), 0.5)
            )
            for _depth in range(self.tvm_depth):
                trust = self._trust_sweep(base, trust[base["win_raters"]])
        self._kernel_scores[perspective] = trust
        return trust

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch trust from the columnar kernel (gather per candidate)."""
        store = self._store
        persp = (
            None
            if perspective is None
            else store.entities.code(perspective)
        )
        trust = self._kernel_trust(persp)
        codes = store.entities.codes(targets)
        known = codes >= 0
        safe = np.where(known, codes, 0)
        total = self.alpha + self.beta
        unknown = min(1.0, max(0.0, (self.alpha * 0.5) / total))
        scores = np.where(known, trust[safe], unknown)
        result: List[float] = scores.tolist()
        return result
