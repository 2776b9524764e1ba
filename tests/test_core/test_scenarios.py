"""Tests for the Figure 1 scenario runners."""

import pickle
import random

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.core.scenarios import (
    DirectSelectionScenario,
    FloatLog,
    MediatedSelectionScenario,
)
from repro.core.selection import EpsilonGreedyPolicy
from repro.experiments.workloads import make_consumers, make_world
from repro.common.randomness import SeedSequenceFactory
from repro.models.beta import BetaReputation
from repro.services.description import ServiceDescription
from repro.services.general import GeneralService, IntermediaryService
from repro.services.provider import Service
from repro.services.qos import DEFAULT_METRICS, QoSProfile


class TestDirectSelectionScenario:
    def build(self, seed=7):
        world = make_world(
            n_providers=4, services_per_provider=1, n_consumers=6,
            seed=seed, quality_spread=0.35,
        )
        scenario = DirectSelectionScenario(
            services=world.services,
            consumers=world.consumers,
            model=BetaReputation(),
            taxonomy=world.taxonomy,
            policy=EpsilonGreedyPolicy(epsilon=0.1,
                                       rng=world.seeds.rng("policy")),
            rng=world.seeds.rng("invoke"),
        )
        return world, scenario

    def test_learning_converges_high(self):
        _, scenario = self.build()
        result = scenario.run(40)
        # Far better than the 1/4 random-choice baseline by the end
        # (the first rounds may already be lucky, so we assert the
        # converged level rather than strict improvement).
        assert result.tail_accuracy(0.25) > 0.6

    def test_counts_consistent(self):
        _, scenario = self.build()
        result = scenario.run(10)
        assert result.selections == 60  # 6 consumers x 10 rounds
        assert sum(result.selection_counts.values()) == 60
        assert len(result.regrets) == 60
        assert len(result.round_accuracy) == 10

    def test_regret_nonnegative(self):
        _, scenario = self.build()
        result = scenario.run(10)
        assert all(r >= -1e-9 for r in result.regrets)

    def test_time_advances(self):
        _, scenario = self.build()
        scenario.run(5)
        assert scenario.time == 5.0

    def test_mixed_categories_rejected(self):
        world = make_world(seed=1)
        world.services[0].description = ServiceDescription(
            service=world.services[0].service_id,
            provider=world.services[0].provider_id,
            category="different",
        )
        with pytest.raises(ConfigurationError):
            DirectSelectionScenario(
                services=world.services,
                consumers=world.consumers,
                model=BetaReputation(),
                taxonomy=world.taxonomy,
            )

    def test_needs_rounds(self):
        _, scenario = self.build()
        with pytest.raises(ConfigurationError):
            scenario.run(0)

    def test_provider_rating_mode(self):
        world = make_world(
            n_providers=3, services_per_provider=2, n_consumers=4, seed=5
        )
        model = BetaReputation()
        scenario = DirectSelectionScenario(
            services=world.services,
            consumers=world.consumers,
            model=model,
            taxonomy=world.taxonomy,
            rate_providers=True,
            rng=world.seeds.rng("invoke"),
        )
        scenario.run(5)
        # Providers accumulated reputation alongside their services.
        provider_ids = {p.provider_id for p in world.providers}
        assert any(model.evidence(pid) != (0.0, 0.0) for pid in provider_ids)


class TestFloatLog:
    def test_reads_like_the_list_it_was_fed(self, global_random_seed):
        rng = random.Random(global_random_seed)
        pool = [0.0, 0.5, 0.25, 1e-9, 0.125] + [rng.random() for _ in range(3)]
        log, dense = FloatLog(), []
        for _ in range(40):
            values = [rng.choice(pool) for _ in range(rng.randint(0, 7))]
            if values and rng.random() < 0.3:
                log.append(values[0])
                dense.append(values[0])
            else:
                log.extend(np.array(values))
                dense.extend(values)
            assert len(log) == len(dense)
        assert list(log) == dense
        assert log == dense and log == FloatLog(dense)
        assert np.asarray(log).tolist() == dense
        assert log[3:9] == dense[3:9] and log[-1] == dense[-1]
        assert pickle.loads(pickle.dumps(log)) == log
        assert log != dense + [1.0]

    def test_codes_widen_past_256_distinct_values(self):
        values = np.arange(300) / 7.0
        assert list(FloatLog(values)) == values.tolist()


class TestMediatedSelectionScenario:
    def build(self):
        seeds = SeedSequenceFactory(11)
        rng = seeds.rng("build")
        intermediaries = []
        # Intermediary i's best flight has quality 0.3 + 0.2*i.
        for i in range(3):
            svc = Service(
                description=ServiceDescription(
                    service=f"booker-{i}", provider=f"prov-{i}",
                    category="flight_booking",
                ),
                profile=QoSProfile(
                    quality={m.name: 0.7 for m in DEFAULT_METRICS},
                    noise=0.0,
                ),
            )
            catalog = [
                GeneralService(
                    general_id=f"flight-{i}-{j}",
                    domain="flight",
                    quality={"comfort": 0.3 + 0.2 * i,
                             "punctuality": 0.3 + 0.2 * i},
                    noise=0.02,
                )
                for j in range(2)
            ]
            intermediaries.append(
                IntermediaryService(svc, catalog, rng=seeds.rng(f"i{i}"))
            )
        consumers = make_consumers(6, DEFAULT_METRICS, seeds)
        scenario = MediatedSelectionScenario(
            intermediaries=intermediaries,
            consumers=consumers,
            model=BetaReputation(),
            taxonomy=DEFAULT_METRICS,
            policy=EpsilonGreedyPolicy(epsilon=0.15, rng=seeds.rng("pol")),
            rng=seeds.rng("invoke"),
        )
        return scenario

    def test_selection_driven_by_general_service_quality(self):
        # All intermediaries have IDENTICAL web-service QoS; only the
        # general services differ.  The mechanism must still learn to
        # pick booker-2 (the best flights) -- the paper's point that in
        # scenario B the general service decides the selection.
        scenario = self.build()
        result = scenario.run(50)
        assert result.tail_accuracy(0.2) > 0.5
        best_picks = result.selection_counts.get("booker-2", 0)
        worst_picks = result.selection_counts.get("booker-0", 0)
        assert best_picks > worst_picks

    def test_achievable_quality_ordering(self):
        scenario = self.build()
        consumer = scenario.consumers[0]
        q = [
            scenario.achievable_quality(f"booker-{i}", consumer)
            for i in range(3)
        ]
        assert q[0] < q[1] < q[2]

    def test_optimal_is_best_booker(self):
        scenario = self.build()
        assert scenario.optimal_for(scenario.consumers[0]) == "booker-2"
