"""The trial harness on the round kernel, against a per-row oracle.

:class:`~repro.core.scenarios.DirectSelectionScenario` runs each round
as one :func:`~repro.experiments.rounds.run_round` over every consumer,
with scores frozen at the round's start and all rounds' keyed draws
taken in one call.  The oracle here is the scalar select-invoke-rate
loop it replaced, one consumer at a time in plain floats: ground truth
from ``Service.true_overall``, the ε-greedy rule of
:class:`~repro.core.selection.EpsilonGreedyPolicy` (ties within 1e-12
broken uniformly), QoS and rating noise from Box–Muller in ``math``,
the five attack strategies as the dict transforms they were written
as, one :class:`~repro.common.records.Feedback` per row through
``record``.  It reads the same keyed draws, one row and one round per
call, so choices must agree exactly and ratings and regrets to 1e-9.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.philox import keyed_uniforms, keyed_words
from repro.common.records import Feedback, Interaction
from repro.core.registry import default_registry
from repro.core.scenarios import DirectSelectionScenario, ScenarioResult
from repro.core.selection import (
    EpsilonGreedyPolicy,
    GreedyPolicy,
    SelectionPolicy,
)
from repro.core.typology import Scope
from repro.experiments.rounds import (
    NORMALS,
    ROUND_STREAM,
    draw_blocks,
    exploit_arms,
)
from repro.experiments.workloads import make_world
from repro.models.base import ReputationModel
from repro.models.beta import BetaReputation
from repro.robustness.attacks import (
    AttackPlan,
    Badmouth,
    BallotStuffing,
    Collusion,
    ComplementaryLiar,
    RandomLiar,
    badmouth_strategy,
    ballot_stuffing_strategy,
    collusion_strategy,
    complementary_liar_strategy,
    random_liar_strategy,
)
from repro.services.consumer import honest_rating_strategy
from repro.services.provider import ImprovingBehavior, OscillatingBehavior

ROUNDS = 6


# ---------------------------------------------------------------------------
# Keyed draws for many steps in one call
# ---------------------------------------------------------------------------


class TestMultiStepDraws:
    def test_multi_step_uniforms_equal_per_step_calls(self, global_random_seed):
        rng = np.random.default_rng(global_random_seed)
        root = int(rng.integers(2**63))
        index = rng.integers(0, 2**40, size=17)
        steps = np.sort(rng.choice(1000, size=9, replace=False))
        planes = keyed_uniforms(root, index, steps, 3, 5)
        words = keyed_words(root, index, steps, 3, 5)
        assert planes.shape == (len(steps), len(index), 20)
        for plane, plane_words, step in zip(planes, words, steps.tolist()):
            single = keyed_uniforms(root, index, step, 3, 5)
            assert plane.tobytes() == single.tobytes()
            assert plane_words.tobytes() == keyed_words(
                root, index, step, 3, 5
            ).tobytes()

    def test_strategy_slots_leave_the_round_slots_alone(self):
        honest = keyed_uniforms(7, [0, 5], 2, ROUND_STREAM, draw_blocks(6))
        lying = keyed_uniforms(7, [0, 5], 2, ROUND_STREAM, draw_blocks(6, True))
        assert lying.shape[1] >= NORMALS + 3 * 6 + 1
        assert lying[:, : honest.shape[1]].tobytes() == honest.tobytes()


# ---------------------------------------------------------------------------
# The per-row oracle
# ---------------------------------------------------------------------------


def clamp(x: float) -> float:
    return min(1.0, max(0.0, x))


def oracle_strategy(
    strategy: Any,
    service: str,
    facets: Dict[str, float],
    lie: List[float],
) -> Dict[str, float]:
    """The five attacks as dict transforms (*lie*: the strategy slots)."""
    if strategy is honest_rating_strategy:
        return facets
    if isinstance(strategy, Badmouth):
        if strategy.victims is None or service in strategy.victims:
            return {f: strategy.low for f in facets}
        return facets
    if isinstance(strategy, Collusion):  # before its base, BallotStuffing
        if service in strategy.allies:
            return {f: strategy.high for f in facets} or {"overall": strategy.high}
        return {f: strategy.low for f in facets}
    if isinstance(strategy, BallotStuffing):
        if service in strategy.allies:
            return {f: strategy.high for f in facets} or {"overall": strategy.high}
        return facets
    if isinstance(strategy, ComplementaryLiar):
        return {f: 1.0 - s for f, s in facets.items()}
    if isinstance(strategy, RandomLiar):
        if lie[0] >= strategy.lie_probability:
            return facets
        return {f: lie[1 + i] for i, f in enumerate(facets)}
    raise AssertionError(f"no oracle for {strategy!r}")


def oracle_run(
    world, model: ReputationModel, key: int, epsilon: float, rounds: int,
    rate_providers: bool, tolerance: float = 0.02,
) -> ScenarioResult:
    """The scalar loop: one consumer at a time, scores frozen per round."""
    services = world.services
    ids = [s.service_id for s in services]
    metrics = world.taxonomy.names()
    n_metrics = len(metrics)
    lies = any(
        c.rating_strategy is not honest_rating_strategy for c in world.consumers
    )
    blocks = draw_blocks(n_metrics, lies)
    personalized = model.typology.scope is Scope.PERSONALIZED
    result = ScenarioResult(rounds=rounds, selections=0, optimal_selections=0)
    for step in range(rounds):
        t = float(step)
        frozen = {
            c.consumer_id: model.score_many(
                ids, c.consumer_id if personalized else None, t
            )
            for c in world.consumers
        }
        accurate = 0
        for k, consumer in enumerate(world.consumers):
            u = keyed_uniforms(key, [k], step, ROUND_STREAM, blocks)[0].tolist()
            scores = frozen[consumer.consumer_id]
            if u[0] < epsilon:
                choice = min(int(u[1] * len(ids)), len(ids) - 1)
            else:
                top = max(scores)
                tied = [j for j, s in enumerate(scores) if s >= top - 1e-12]
                choice = tied[min(int(u[3] * len(tied)), len(tied) - 1)]
            truth = [
                svc.true_overall(t, consumer.preferences.weights, consumer.segment)
                for svc in services
            ]
            best = max(range(len(ids)), key=lambda j: (truth[j], ids[j]))
            regret = truth[best] - truth[choice]
            if choice == best or regret <= tolerance:
                accurate += 1
            result.regrets.append(regret)
            result.selection_counts[ids[choice]] = (
                result.selection_counts.get(ids[choice], 0) + 1
            )
            service = services[choice]
            profile = service.profile_at(t)
            success = u[2] < profile.success_rate
            normals: List[float] = []
            for p in range(n_metrics):
                radius = math.sqrt(-2.0 * math.log(1.0 - u[NORMALS + 2 * p]))
                theta = 2.0 * math.pi * u[NORMALS + 2 * p + 1]
                normals += [radius * math.cos(theta), radius * math.sin(theta)]
            observed: Dict[str, float] = {}
            honest: Dict[str, float] = {}
            if success:
                for i, m in enumerate(metrics):
                    observed[m] = clamp(
                        profile.true_quality(m, consumer.segment)
                        + profile.noise * normals[i]
                    )
                    honest[m] = clamp(
                        observed[m] + consumer.rating_noise * normals[n_metrics + i]
                    )
            lie = u[NORMALS + 2 * n_metrics :]
            filed = {
                m: clamp(v)
                for m, v in oracle_strategy(
                    consumer.rating_strategy, service.service_id, honest, lie
                ).items()
            }
            rating = clamp(consumer.preferences.overall(filed)) if filed else 0.0
            interaction = Interaction(
                consumer=consumer.consumer_id,
                service=service.service_id,
                provider=service.provider_id,
                time=t,
                success=success,
                observations={
                    m: world.taxonomy.get(m).denormalize(q)
                    for m, q in observed.items()
                },
            )
            targets = [service.service_id]
            if rate_providers:
                targets.append(service.provider_id)
            for target in targets:
                model.record(
                    Feedback(
                        rater=consumer.consumer_id,
                        target=target,
                        time=t,
                        rating=rating,
                        facet_ratings=dict(filed),
                        interaction=interaction,
                    )
                )
        result.selections += len(world.consumers)
        result.optimal_selections += accurate
        result.round_accuracy.append(accurate / len(world.consumers))
    return result


# ---------------------------------------------------------------------------
# What reached the model
# ---------------------------------------------------------------------------


class Tap(ReputationModel):
    """Forwards to *inner* and keeps every row it was given, however
    it was given (one record, a record list, or columns)."""

    def __init__(self, inner: ReputationModel) -> None:
        self.inner = inner
        self.name = inner.name
        self.typology = inner.typology
        self.reads_facets = inner.reads_facets
        #: (rater, target, rating, time, facets or None, success or None)
        self.rows: List[Tuple[Any, ...]] = []

    def _keep(self, fb: Feedback) -> None:
        success = fb.interaction.success if fb.interaction else None
        n_obs = len(fb.interaction.observations) if fb.interaction else None
        self.rows.append(
            (fb.rater, fb.target, fb.rating, fb.time,
             dict(fb.facet_ratings), (success, n_obs))
        )

    def record(self, feedback: Feedback) -> None:
        self._keep(feedback)
        self.inner.record(feedback)

    def record_many(self, feedbacks) -> None:
        feedbacks = list(feedbacks)
        for fb in feedbacks:
            self._keep(fb)
        self.inner.record_many(feedbacks)

    def record_columns(self, raters, targets, ratings, times) -> None:
        self.rows.extend(
            (r, t, float(v), float(tm), None, None)
            for r, t, v, tm in zip(raters, targets, ratings, times)
        )
        self.inner.record_columns(raters, targets, ratings, times)

    def score(self, target, perspective=None, now=None) -> float:
        return self.inner.score(target, perspective, now)

    def score_many(self, targets, perspective=None, now=None):
        return self.inner.score_many(targets, perspective, now)


def oracle_world(seed: int):
    """Heterogeneous weights and segments, time-varying truth, and
    services that fail a third of their calls."""
    world = make_world(
        n_providers=3,
        services_per_provider=2,
        n_consumers=14,
        seed=seed,
        n_segments=2,
        segment_spread=0.2,
        preference_heterogeneity=0.7,
        behaviors={
            0: OscillatingBehavior(drop=0.3, good_duration=2.0, bad_duration=2.0),
            3: ImprovingBehavior(initial_deficit=0.4, ramp_duration=4.0),
        },
    )
    for svc in world.services[::2]:
        svc.profile.success_rate = 0.65
    for consumer in world.consumers[::5]:
        consumer.rating_noise = 0.0
    return world


STRATEGIES = {
    "honest": None,
    "badmouth": lambda: badmouth_strategy({"svc-0004", "svc-0005"}),
    "ballot_stuffing": lambda: ballot_stuffing_strategy({"svc-0000"}),
    "collusion": lambda: collusion_strategy({"svc-0001"}),
    "complementary": complementary_liar_strategy,
    "random": lambda: random_liar_strategy(0.5, rng=0),
}


def run_both(
    seed: int,
    model_name: str,
    epsilon: float,
    strategy: Optional[str] = None,
    rate_providers: bool = False,
):
    """(kernel result, kernel tap, oracle result, oracle tap) on twin
    worlds, the kernel's consumers attacked the same way."""
    runs = []
    for _ in range(2):
        world = oracle_world(seed)
        factory = STRATEGIES.get(strategy or "honest")
        if factory is not None:
            AttackPlan(liar_fraction=0.5, strategy_factory=factory).apply(
                world.consumers
            )
        tap = Tap(default_registry(rng_seed=seed).create(model_name))
        runs.append((world, tap))
    (world, tap), (oracle_w, oracle_tap) = runs
    policy: SelectionPolicy = EpsilonGreedyPolicy(epsilon, rng=0)
    scenario = DirectSelectionScenario(
        services=world.services,
        consumers=world.consumers,
        model=tap,
        taxonomy=world.taxonomy,
        policy=policy,
        rate_providers=rate_providers,
        rng=seed,
    )
    result = scenario.run(ROUNDS)
    expected = oracle_run(
        oracle_w, oracle_tap, scenario.key, epsilon, ROUNDS, rate_providers
    )
    return result, tap, expected, oracle_tap


def assert_same_run(result, tap, expected, oracle_tap) -> None:
    assert result.selections == expected.selections
    assert result.selection_counts == expected.selection_counts
    assert list(result.selection_counts) == list(expected.selection_counts)
    assert result.round_accuracy == expected.round_accuracy
    np.testing.assert_allclose(result.regrets, expected.regrets, rtol=0, atol=1e-9)
    assert len(tap.rows) == len(oracle_tap.rows)
    for got, want in zip(tap.rows, oracle_tap.rows):
        assert got[:2] == want[:2]  # rater, target: the choice, exactly
        assert got[2] == pytest.approx(want[2], abs=1e-9)
        assert got[3] == want[3]
        if got[4] is not None:  # filed as a whole record
            assert got[4].keys() == want[4].keys()
            for facet, value in got[4].items():
                assert value == pytest.approx(want[4][facet], abs=1e-9)
            assert got[5] == want[5]


class TestKernelMatchesOracle:
    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_strategies_and_exploration(self, global_random_seed, epsilon, strategy):
        assert_same_run(*run_both(global_random_seed, "beta", epsilon, strategy))

    def test_run_has_failures_and_liars(self, global_random_seed):
        world = oracle_world(global_random_seed)
        liars = AttackPlan(
            liar_fraction=0.5, strategy_factory=STRATEGIES["ballot_stuffing"]
        ).apply(world.consumers)
        tap = Tap(BetaReputation())
        DirectSelectionScenario(
            services=world.services,
            consumers=world.consumers,
            model=tap,
            taxonomy=world.taxonomy,
            policy=EpsilonGreedyPolicy(1.0),
            rng=global_random_seed,
        ).run(20)
        liar_ids = {c.consumer_id for c in liars}
        stuffed = [row[2] for row in tap.rows if row[0] in liar_ids and row[1] == "svc-0000"]
        honest = [row[2] for row in tap.rows if row[0] not in liar_ids]
        assert stuffed and all(r == pytest.approx(0.95) for r in stuffed)
        assert 0.0 in honest  # failed calls nobody rated anyway

    def test_personalized_model_scores_per_consumer(self, global_random_seed):
        assert_same_run(
            *run_both(global_random_seed, "collaborative_filtering", 0.3, "collusion")
        )

    @pytest.mark.parametrize("model_name", ["peertrust", "maximilien_singh"])
    def test_facet_models_get_whole_records(self, global_random_seed, model_name):
        result, tap, expected, oracle_tap = run_both(
            global_random_seed, model_name, 0.3, "ballot_stuffing"
        )
        assert_same_run(result, tap, expected, oracle_tap)
        assert all(row[4] is not None for row in tap.rows)
        assert any(row[5][0] is False for row in tap.rows)

    def test_provider_rows_follow_their_service_rows(self, global_random_seed):
        result, tap, expected, oracle_tap = run_both(
            global_random_seed, "beta", 0.3, "badmouth", rate_providers=True
        )
        assert_same_run(result, tap, expected, oracle_tap)
        assert len(tap.rows) == 2 * result.selections
        services = {s.service_id: s.provider_id for s in oracle_world(0).services}
        for service_row, provider_row in zip(tap.rows[::2], tap.rows[1::2]):
            assert provider_row[1] == services[service_row[1]]
            assert provider_row[2] == service_row[2]

    def test_facet_model_with_provider_rows(self, global_random_seed):
        assert_same_run(
            *run_both(
                global_random_seed, "peertrust", 0.3, "random", rate_providers=True
            )
        )


class TestRunInPieces:
    def test_runs_continue_the_round_counter(self, global_random_seed):
        def scenario():
            world = oracle_world(global_random_seed)
            return DirectSelectionScenario(
                services=world.services,
                consumers=world.consumers,
                model=BetaReputation(),
                taxonomy=world.taxonomy,
                policy=EpsilonGreedyPolicy(0.3),
                rng=global_random_seed,
            )

        whole = scenario().run(9)
        split = scenario()
        first, second = split.run(5), split.run(4)
        assert list(first.regrets) + list(second.regrets) == list(whole.regrets)
        assert list(first.round_accuracy) + list(second.round_accuracy) == list(
            whole.round_accuracy
        )
        assert split.time == 9.0


# ---------------------------------------------------------------------------
# Exploit tie-break
# ---------------------------------------------------------------------------


class _Flat(ReputationModel):
    """Scores every target the same: every service is tied at the top."""

    name = "flat"
    typology = BetaReputation.typology

    def record(self, feedback: Feedback) -> None:
        pass

    def score(self, target, perspective=None, now=None) -> float:
        return 0.5


class TestTieBreak:
    def test_tied_exploit_arms_spread_over_all_tied_services(
        self, global_random_seed
    ):
        world = make_world(
            n_providers=4, services_per_provider=2, n_consumers=200,
            seed=global_random_seed,
        )
        scenario = DirectSelectionScenario(
            services=world.services,
            consumers=world.consumers,
            model=_Flat(),
            taxonomy=world.taxonomy,
            policy=GreedyPolicy(),
            rng=global_random_seed,
        )
        result = scenario.run(1)
        assert set(result.selection_counts) == {s.service_id for s in world.services}
        assert max(result.selection_counts.values()) < 200 / 8 * 2

    def test_exploit_arms_only_pick_tied_services(self, global_random_seed):
        rng = np.random.default_rng(global_random_seed)
        scores = np.array([0.2, 0.9, 0.9 - 1e-13, 0.5, 0.9])
        tie = rng.random(500)
        arms = exploit_arms(scores, tie)
        assert set(arms.tolist()) == {1, 2, 4}
        matrix = np.tile(scores, (500, 1))
        matrix[::2, 0] = 1.0  # even rows have one clear winner
        rows = exploit_arms(matrix, tie)
        assert (rows[::2] == 0).all()
        assert rows[1::2].tolist() == arms[1::2].tolist()

    def test_unique_top_needs_no_tie_break(self):
        assert exploit_arms(np.array([0.1, 0.7, 0.3]), np.zeros(4)) == 1


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class TestPolicies:
    def build(self, policy):
        world = make_world(n_providers=2, n_consumers=3, seed=1)
        return DirectSelectionScenario(
            services=world.services,
            consumers=world.consumers,
            model=default_registry().create("beta"),
            taxonomy=world.taxonomy,
            policy=policy,
            rng=1,
        )

    def test_greedy_and_epsilon_greedy_map_to_epsilon(self):
        assert self.build(None).epsilon == 0.0
        assert self.build(GreedyPolicy()).epsilon == 0.0
        assert self.build(EpsilonGreedyPolicy(0.25, rng=0)).epsilon == 0.25

    def test_other_policies_rejected(self):
        class Fixed(SelectionPolicy):
            def choose(self, ranking):
                return ranking[0].target

        with pytest.raises(ConfigurationError, match="Fixed"):
            self.build(Fixed())
