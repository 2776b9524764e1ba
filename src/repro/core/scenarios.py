"""Figure 1's two usage scenarios as runnable simulations.

* **Direct selection (Figure 1A)** — consumers choose among redundant
  web services on the services' own QoS; each round every consumer
  selects, invokes, rates, and reports.
* **Mediated selection (Figure 1B)** — consumers choose an intermediary
  web service (e.g. a flight-booking site) to obtain a *general service*
  (the flight); the outcome — and therefore the sensible selection — is
  dominated by the general service's quality, with the intermediary's
  own QoS playing only a small part.

Both runners report ground-truth-aware metrics: how often consumers
picked the truly best option (accuracy) and how much quality they left
on the table (regret).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.mathutils import safe_mean
from repro.common.randomness import RngLike, make_rng
from repro.common.records import Feedback, Interaction
from repro.core.selection import (
    EpsilonGreedyPolicy,
    GreedyPolicy,
    SelectionEngine,
    SelectionPolicy,
)
from repro.core.typology import Scope
from repro.models.base import ReputationModel
from repro.obs.recorder import get_recorder
from repro.registry.uddi import UDDIRegistry
from repro.services.consumer import Consumer
from repro.services.general import IntermediaryService
from repro.services.invocation import InvocationEngine
from repro.services.provider import Service
from repro.services.qos import QoSTaxonomy

if TYPE_CHECKING:  # the kernel's package imports this module
    from repro.experiments.rounds import CatalogState, RoundRows


class FloatLog(Sequence[float]):
    """A result's per-row floats, dictionary-encoded: the sorted distinct
    values once, plus a code per row of the narrowest unsigned type.

    Regrets (one consumer's quality gap to one service, shared by
    consumers with the same preferences) and round accuracies (counts
    over the consumers) take few distinct values, so this costs a byte
    or two per row where a list costs a 32-byte float.  It reads like
    the list: ``len``, indexing, iteration, ``==``, ``numpy.asarray``.
    """

    def __init__(self, values: Iterable[float] = ()) -> None:
        self._values = np.empty(0)
        self._codes = np.empty(0, dtype=np.uint8)
        self.extend(values)

    def append(self, value: float) -> None:
        self.extend([value])

    def extend(self, values: Iterable[float]) -> None:
        new = np.array(values, dtype=np.float64).ravel()
        at = np.searchsorted(self._values, new)
        if not (at < len(self._values)).all() or (self._values[at] != new).any():
            known = len(self._values)  # an unseen value: re-encode
            self._values, inverse = np.unique(
                np.concatenate([self._values, new]), return_inverse=True
            )
            self._codes, at = inverse[:known][self._codes], inverse[known:]
        codes = np.concatenate([self._codes, at])
        self._codes = codes.astype(np.min_scalar_type(len(self._values)))

    def __array__(self, dtype: object = None, copy: object = None) -> np.ndarray:
        return self._values[self._codes]

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, index):  # type: ignore[override]
        return self.__array__().tolist()[index]

    def __iter__(self) -> Iterator[float]:
        return iter(self.__array__().tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Sequence, np.ndarray)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"FloatLog({list(self)!r})"


@dataclass
class ScenarioResult:
    """Outcome of a scenario run."""

    rounds: int
    selections: int
    optimal_selections: int
    regrets: FloatLog = field(default_factory=FloatLog)
    #: accuracy per round (fraction of consumers choosing optimally)
    round_accuracy: FloatLog = field(default_factory=FloatLog)
    selection_counts: Dict[EntityId, int] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        if self.selections == 0:
            return 0.0
        return self.optimal_selections / self.selections

    @property
    def mean_regret(self) -> float:
        return safe_mean(self.regrets)

    def tail_accuracy(self, fraction: float = 0.25) -> float:
        """Accuracy over the last *fraction* of rounds (post-learning)."""
        if not self.round_accuracy:
            return 0.0
        k = max(1, int(len(self.round_accuracy) * fraction))
        return safe_mean(self.round_accuracy[-k:])


def tally_selections(
    tally: Dict[EntityId, int], names: Sequence[EntityId], codes: np.ndarray
) -> None:
    """Add selections *codes* (indices into *names*) to *tally*; new
    names enter in first-selection order, the order a per-row loop
    inserts them."""
    unique, first, counts = np.unique(codes, return_index=True, return_counts=True)
    for k in np.argsort(first).tolist():
        name = names[unique[k]]
        tally[name] = tally.get(name, 0) + int(counts[k])


def _one_category(
    kind: str, services: "list[Service]", consumers: "list[Consumer]", tolerance: float
) -> str:
    """The one category of *services*, after the checks both runners make."""
    if not services:
        raise ConfigurationError(f"scenario needs {kind}")
    if not consumers:
        raise ConfigurationError("scenario needs consumers")
    categories = {s.category for s in services}
    if len(categories) != 1:
        raise ConfigurationError(f"{kind} in categories {sorted(categories)}")
    if tolerance < 0:
        raise ConfigurationError("optimality_tolerance must be >= 0")
    return categories.pop()


class DirectSelectionScenario:
    """Figure 1A: repeated select-invoke-rate rounds on one category.

    Each round is one :func:`~repro.experiments.rounds.run_round` over
    every consumer, against scores frozen at the round's start (a row
    per consumer for a model whose typology scope is personalized), so
    no consumer sees another's feedback from the same round.  Draws are
    keyed by (a root key drawn from *rng*, the consumer's position).
    Rows reach the model as columns, or as whole
    :class:`~repro.common.records.Feedback` records when it
    :attr:`~repro.models.base.ReputationModel.reads_facets`.  Consumers
    rate honestly or with a
    :class:`~repro.robustness.attacks.RatingTransform`; *policy* is
    greedy (the default) or ε-greedy, and only its ε is used.

    Args:
        rate_providers: also file each row at the service's provider.
        optimality_tolerance: a choice counts as optimal when its true
            quality is within this of the best candidate's — services
            closer than the observation noise are indistinguishable in
            principle, so strict-argmax accuracy would only measure
            tie-breaking luck.
    """

    def __init__(
        self,
        services: "list[Service]",
        consumers: "list[Consumer]",
        model: ReputationModel,
        taxonomy: QoSTaxonomy,
        policy: Optional[SelectionPolicy] = None,
        round_length: float = 1.0,
        rate_providers: bool = False,
        optimality_tolerance: float = 0.02,
        rng: RngLike = None,
    ) -> None:
        from repro.experiments.rounds import ConsumerBlock, profiled_metrics

        self.category = _one_category(
            "services", services, consumers, optimality_tolerance
        )
        metrics = profiled_metrics(services, taxonomy.names())
        if policy is None or isinstance(policy, GreedyPolicy):
            self.epsilon = 0.0
        elif isinstance(policy, EpsilonGreedyPolicy):
            self.epsilon = policy.epsilon
        else:
            raise ConfigurationError(
                f"{type(policy).__name__} is not supported; the direct "
                "scenario runs GreedyPolicy or EpsilonGreedyPolicy"
            )
        self.services = list(services)
        self.consumers = consumers
        self.model = model
        self.taxonomy = taxonomy
        self.metrics = metrics
        self.round_length = round_length
        self.rate_providers = rate_providers
        self.optimality_tolerance = optimality_tolerance
        self.block = ConsumerBlock.from_consumers(
            consumers, range(len(consumers)), metrics
        )
        self.key = int(make_rng(rng).integers(2**63))
        self._ids = [s.service_id for s in services]
        typology = model.typology
        self._global = typology is not None and typology.scope is Scope.GLOBAL
        self._catalog: Optional["CatalogState"] = None
        self._round = 0
        self.time = 0.0

    def run_round(
        self, result: ScenarioResult, uniforms: Optional[np.ndarray] = None
    ) -> None:
        """One round, on its pre-drawn keyed *uniforms* if given."""
        from repro.experiments.rounds import catalog_at, round_uniforms, run_round

        if uniforms is None:
            uniforms = round_uniforms(
                self.block, self.key, self._round, len(self.metrics)
            )
        t = self.time
        self._catalog = catalog_at(
            self.services, self.metrics, self.block.segments, t, self._catalog
        )
        if self._global:  # scores frozen for the round
            scores = self.model.score_many(self._ids, now=t)
        else:
            scores = [self.model.score_many(self._ids, c, t) for c in self.block.ids]
        rows = run_round(
            self.block,
            self._catalog,
            uniforms,
            np.array(scores),
            self.epsilon,
            self.optimality_tolerance,
        )
        if self.model.reads_facets:
            self.model.record_many(self._feedback(rows, t))
        else:
            chosen = [self.services[c] for c in rows.choice.tolist()]
            targets = [s.service_id for s in chosen]
            raters, ratings = self.block.ids, rows.rating
            if self.rate_providers:  # provider row right after service row
                targets = [i for s in chosen for i in (s.service_id, s.provider_id)]
                raters = [r for r in raters for _ in (0, 1)]
                ratings = np.repeat(ratings, 2)
            times = np.full(len(ratings), t)
            self.model.record_columns(raters, targets, ratings, times)
        n, accurate = len(self.block), int(rows.accurate.sum())
        result.selections += n
        result.optimal_selections += accurate
        result.regrets.extend(rows.regret)
        result.round_accuracy.append(accurate / n)
        tally_selections(result.selection_counts, self._ids, rows.choice)
        rec = get_recorder()
        if rec.enabled:
            attrs = {"model": self.model.name, "round": self._round, "rows": n}
            rec.advance(t)
            rec.span("scenario.round", self.round_length, attrs=attrs, time=t)
            rec.count("scenario.rows", n)
        self._round += 1
        self.time += self.round_length

    def _feedback(self, rows: "RoundRows", t: float) -> Iterator[Feedback]:
        """The round as whole records: facets and the interaction."""
        for k, rater in enumerate(self.block.ids):
            service = self.services[int(rows.choice[k])]
            success, rating = bool(rows.success[k]), float(rows.rating[k])
            facets = {"overall": rating} if rows.rated[k] else {}
            observed: Dict[str, float] = {}
            if success:
                facets = dict(zip(self.metrics, rows.filed[k].tolist()))
                for m, q in zip(self.metrics, rows.observed[k].tolist()):
                    observed[m] = self.taxonomy.get(m).denormalize(q)
            interaction = Interaction(
                rater, service.service_id, service.provider_id, t, success, observed
            )
            targets = [service.service_id, service.provider_id]
            for target in targets[: 1 + self.rate_providers]:
                yield Feedback(rater, target, t, rating, dict(facets), interaction)

    def run(self, rounds: int) -> ScenarioResult:
        from repro.experiments.rounds import draw_blocks, round_uniforms

        if rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        result = ScenarioResult(rounds=rounds, selections=0, optimal_selections=0)
        # Draws never depend on scores: one keyed call per ~8 MB of rounds.
        slots = 4 * draw_blocks(len(self.metrics), bool(self.block.strategies))
        chunk = max(1, (1 << 20) // (len(self.block) * slots))
        end = self._round + rounds
        for lo in range(self._round, end, chunk):
            steps = np.arange(lo, min(lo + chunk, end))
            for u in round_uniforms(self.block, self.key, steps, len(self.metrics)):
                self.run_round(result, u)
        return result


class MediatedSelectionScenario:
    """Figure 1B: select an intermediary, consume a general service.

    Each round a consumer selects an intermediary via the reputation
    mechanism, books the intermediary's best-matching general service,
    and rates the intermediary by the *perceived* outcome — which is
    dominated by the general service's quality.
    """

    def __init__(
        self,
        intermediaries: "list[IntermediaryService]",
        consumers: "list[Consumer]",
        model: ReputationModel,
        taxonomy: QoSTaxonomy,
        policy: Optional[SelectionPolicy] = None,
        round_length: float = 1.0,
        optimality_tolerance: float = 0.02,
        rng: RngLike = None,
    ) -> None:
        self.category = _one_category(
            "intermediaries",
            [i.service for i in intermediaries],
            consumers,
            optimality_tolerance,
        )
        self.optimality_tolerance = optimality_tolerance
        self.intermediaries = {i.service_id: i for i in intermediaries}
        self.consumers = consumers
        self.model = model
        self.taxonomy = taxonomy
        self.round_length = round_length
        self.uddi = UDDIRegistry()
        for intermediary in intermediaries:
            self.uddi.publish(intermediary.service.description)
        self.engine = SelectionEngine(self.uddi, model, policy)
        self.invoker = InvocationEngine(taxonomy, rng=make_rng(rng))
        self.time = 0.0

    def achievable_quality(
        self, intermediary_id: EntityId, consumer: Consumer
    ) -> float:
        """Best perceived quality this intermediary can deliver now."""
        intermediary = self.intermediaries[intermediary_id]
        w = intermediary.intermediary_weight
        own = intermediary.service.true_overall(
            self.time, consumer.preferences.weights, consumer.segment
        )
        best_general = intermediary.best_general(consumer.segment)
        return w * own + (1.0 - w) * best_general.overall(consumer.segment)

    def optimal_for(self, consumer: Consumer) -> EntityId:
        return max(
            self.intermediaries,
            key=lambda iid: (self.achievable_quality(iid, consumer), iid),
        )

    def run(self, rounds: int) -> ScenarioResult:
        if rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        result = ScenarioResult(rounds=rounds, selections=0, optimal_selections=0)
        for _ in range(rounds):
            accurate = 0
            for consumer in self.consumers:
                chosen = self.engine.select(
                    self.category, consumer.consumer_id, now=self.time
                )
                assert chosen is not None
                optimal = self.optimal_for(consumer)
                chosen_quality = self.achievable_quality(chosen, consumer)
                optimal_quality = self.achievable_quality(optimal, consumer)
                result.selections += 1
                result.selection_counts[chosen] = (
                    result.selection_counts.get(chosen, 0) + 1
                )
                if chosen == optimal or (
                    optimal_quality - chosen_quality
                    <= self.optimality_tolerance
                ):
                    result.optimal_selections += 1
                    accurate += 1
                result.regrets.append(optimal_quality - chosen_quality)
                intermediary = self.intermediaries[chosen]
                general = intermediary.best_general(consumer.segment)
                outcome = intermediary.book(
                    consumer, general.general_id, self.invoker, self.time
                )
                feedback = Feedback(
                    rater=consumer.consumer_id,
                    target=chosen,
                    time=self.time,
                    rating=outcome.perceived_quality,
                    facet_ratings=dict(outcome.intermediary_facets),
                    interaction=outcome.interaction,
                )
                self.model.record(feedback)
            result.round_accuracy.append(accurate / len(self.consumers))
            self.time += self.round_length
        return result
