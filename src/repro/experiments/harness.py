"""Shared experiment driver: run one mechanism on one world.

The canonical experiment shape behind most figures/claims: build a
world, run a :class:`~repro.core.scenarios.DirectSelectionScenario` for
some rounds (one vectorized round-kernel pass per round), and report
accuracy/regret plus score quality against ground truth.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.ids import EntityId
from repro.core.scenarios import DirectSelectionScenario, ScenarioResult
from repro.core.selection import EpsilonGreedyPolicy, SelectionPolicy
from repro.experiments.metrics import ranking_quality
from repro.experiments.workloads import World
from repro.models.base import ReputationModel
from repro.robustness.attacks import AttackPlan


@dataclass
class SelectionOutcome:
    """Everything a selection experiment reports."""

    model_name: str
    result: ScenarioResult
    final_scores: Dict[EntityId, float]
    ranking: Dict[str, Optional[float]]

    @property
    def accuracy(self) -> float:
        return self.result.accuracy

    @property
    def tail_accuracy(self) -> float:
        return self.result.tail_accuracy()

    @property
    def mean_regret(self) -> float:
        return self.result.mean_regret


def run_selection_experiment(
    model: ReputationModel,
    world: World,
    rounds: int = 30,
    policy: Optional[SelectionPolicy] = None,
    attack: Optional[AttackPlan] = None,
    rate_providers: bool = False,
) -> SelectionOutcome:
    """Run the standard select-invoke-rate loop and evaluate the model.

    Args:
        policy: defaults to ε-greedy(0.1) seeded from the world — pure
            greed starves newcomers of evidence, pure exploration never
            exploits; 0.1 is the conventional middle.
        attack: optional dishonest-population plan, applied to per-run
            copies of the consumers — the caller's ``world.consumers``
            keep their own strategies, so replications sharing a world
            never compound an attack.
    """
    consumers = world.consumers
    if attack is not None:
        consumers = [copy.copy(c) for c in consumers]
        attack.apply(consumers)
    if policy is None:
        policy = EpsilonGreedyPolicy(epsilon=0.1, rng=world.seeds.rng("policy"))
    scenario = DirectSelectionScenario(
        services=world.services,
        consumers=consumers,
        model=model,
        taxonomy=world.taxonomy,
        policy=policy,
        rate_providers=rate_providers,
        rng=world.seeds.rng("invocations"),
    )
    result = scenario.run(rounds)
    service_ids = [svc.service_id for svc in world.services]
    final_scores = dict(
        zip(service_ids, model.score_many(service_ids, now=scenario.time))
    )
    return SelectionOutcome(
        model_name=model.name,
        result=result,
        final_scores=final_scores,
        ranking=ranking_quality(final_scores, world.true_quality),
    )
