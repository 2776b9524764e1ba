"""The four benchmark workloads.

Each workload drives the program only through public entry points and
only with inputs generated from the benchmark seed:

* ``world.sharded`` — :func:`run_sharded_experiment`, one world of
  10^4 consumers x 2 epochs x 2 rounds on 2 in-process shards;
* ``trials.harness`` — :func:`run_trials` over 8 independent
  direct-selection trials (25 consumers x 30 rounds each);
* ``serve.steady`` — closed-loop clients against
  :class:`SelectionService` with a live :class:`Recorder`;
* ``serve.history`` — the same clients over a model preloaded with
  10^5 feedback rows.

A workload exposes ``check()`` (the correctness gate run before any
timing) and ``rep()`` (one timed repetition, returning a :class:`Rep`
whose ``identity`` must equal every other repetition's).  Set-up time
is measured around the program's world-building and constructor calls:
the world factories are registered under benchmark-owned names through
the program's own registries (``register_world_builder``,
``register_shard_world_builder``), so every world built inside a run is
timed without touching the run itself.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.common.randomness import SeedSequenceFactory, make_rng
from repro.common.records import Feedback
from repro.core.registry import default_registry
from repro.experiments.parallel import (
    register_world_builder,
    replication_specs,
    run_trials,
)
from repro.experiments.sharded import (
    SERIAL,
    ShardedRunSpec,
    register_shard_world_builder,
    run_sharded_experiment,
)
from repro.experiments.workloads import make_shard_world, make_world
from repro.obs.recorder import Recorder, use_recorder
from repro.registry.uddi import UDDIRegistry
from repro.serve.core import ServeConfig, ServiceCore
from repro.serve.loadgen import LoadReport, LoadSpec
from repro.serve.replay import replay_log
from repro.serve.service import SelectionService
from repro.serve.sla import serve_sla_table

__all__ = ["CheckFailed", "Rep", "SetupClock", "WORKLOADS"]

_STATUSES = ("ok", "degraded", "failed", "expired", "shed", "throttled")


class CheckFailed(Exception):
    """A workload's output was wrong; the benchmark reports no numbers."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Rep:
    """One timed repetition of a workload.

    Intervals are ``(start_ns, end_ns)`` pairs of ``perf_counter_ns``
    readings; the runner turns them into seconds (host-normalised in
    the untraced run, see ``hostspeed.py``).
    """

    #: wall time of the workload's top-level call(s), set-up included
    wall_s: float
    #: feedback rows that entered reputation state
    rows: int
    attempted: int
    ok: int
    #: each client-observed request
    requests: List[Tuple[int, int]]
    #: (start_ns, end_ns, rows) per shortest independently timed piece
    #: of the repetition; set-up calls inside a piece are not its work
    samples: List[Tuple[int, int, int]]
    #: each of the program's world-building and constructor calls
    setup: List[Tuple[int, int]]
    #: canonical identity; identical for every repetition of one seed
    identity: Any
    #: operations the traced run normalises per-op time by
    ops: int = 0


class SetupClock:
    """Times the program's set-up calls.

    During a traced repetition :attr:`tracer` is set, and set-up calls
    become ``workloads.build`` spans (the serve workloads also open a
    span around their event loop).
    """

    def __init__(self) -> None:
        #: (start, end) in perf_counter_ns of every timed call
        self.calls: List[Tuple[int, int]] = []
        self.tracer: Any = None

    def reset(self) -> None:
        self.calls = []

    def span(self, layer: str) -> Any:
        return self.tracer.span(layer) if self.tracer else nullcontext()

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        with self.span("workloads.build"):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.calls.append((start, time.perf_counter_ns()))

    def timed(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def timed_fn(**kwargs: Any) -> Any:
            return self.call(fn, **kwargs)

        return timed_fn


# ---------------------------------------------------------------------------
# world.sharded
# ---------------------------------------------------------------------------


class WorldSharded:
    name = "world.sharded"
    SHARDS = 2
    EPOCHS = 2
    ROUNDS_PER_EPOCH = 2
    CONSUMERS = 10_000
    PARAMS = dict(n_providers=5, services_per_provider=2)
    GATE = dict(n_providers=3, services_per_provider=2, n_consumers=97)

    def __init__(self, seed: int, clock: SetupClock) -> None:
        self.seed = seed
        self.clock = clock
        self.world_name = f"perfbench.{seed}.shard_world"
        register_shard_world_builder(
            self.world_name, clock.timed(make_shard_world), overwrite=True
        )
        self.spec = self._spec(dict(self.PARAMS, n_consumers=self.CONSUMERS))
        self.rows = self.CONSUMERS * self.spec.total_rounds

    def _spec(self, params: Dict[str, Any]) -> ShardedRunSpec:
        return ShardedRunSpec(
            model="beta",
            seed=self.seed,
            epochs=self.EPOCHS,
            rounds_per_epoch=self.ROUNDS_PER_EPOCH,
            world=self.world_name,
            world_params=params,
        )

    def check(self) -> None:
        gate = self._spec(dict(self.GATE))
        one = run_sharded_experiment(gate, shards=1, mode=SERIAL)
        two = run_sharded_experiment(gate, shards=self.SHARDS, mode=SERIAL)
        require(
            one.canonical_bytes() == two.canonical_bytes(),
            f"{self.SHARDS}-shard canonical bytes differ from 1-shard bytes",
        )
        require(one.result == two.result, "sharded scenario result differs")
        expected = self.GATE["n_consumers"] * gate.total_rounds
        require(len(one.store) == expected, "gate world row count is wrong")

    def rep(self) -> Rep:
        self.clock.reset()
        start = time.perf_counter_ns()
        report = run_sharded_experiment(self.spec, shards=self.SHARDS, mode=SERIAL)
        end = time.perf_counter_ns()
        rows = len(report.store)
        require(rows == self.rows, f"world produced {rows} rows, expected {self.rows}")
        require(
            report.result.selections == self.rows, "selection count != consumers x rounds"
        )
        identity = (
            hashlib.sha256(report.canonical_bytes()).hexdigest(),
            tuple(report.final_scores),
        )
        return Rep(
            wall_s=(end - start) / 1e9,
            rows=rows,
            attempted=self.rows,
            ok=rows,
            requests=[(start, end)],
            samples=[(start, end, rows)],
            setup=list(self.clock.calls),
            identity=identity,
            ops=rows,
        )


# ---------------------------------------------------------------------------
# trials.harness
# ---------------------------------------------------------------------------


class TrialsHarness:
    name = "trials.harness"
    TRIALS = 8
    ROUNDS = 30
    PARAMS = dict(n_consumers=25)

    def __init__(self, seed: int, clock: SetupClock) -> None:
        self.clock = clock
        self.world_name = f"perfbench.{seed}.world"
        register_world_builder(self.world_name, clock.timed(make_world), overwrite=True)
        self.specs = replication_specs(
            "beta",
            self.TRIALS,
            base_seed=seed,
            rounds=self.ROUNDS,
            world=self.world_name,
            world_params=self.PARAMS,
        )
        self.rows = self.TRIALS * self.ROUNDS * self.PARAMS["n_consumers"]

    @staticmethod
    def _identity(report: Any) -> Tuple[Any, ...]:
        return tuple(
            (o.result, tuple(sorted(o.final_scores.items()))) for o in report.outcomes
        )

    def check(self) -> None:
        first = run_trials(self.specs[:2], max_workers=1)
        second = run_trials(self.specs[:2], max_workers=1)
        require(
            self._identity(first) == self._identity(second),
            "two runs of the same trials gave different outcomes",
        )

    def rep(self) -> Rep:
        """One ``run_trials`` call, split into per-trial timings at the
        world build each trial starts with."""
        self.clock.reset()
        start = time.perf_counter_ns()
        report = run_trials(self.specs, max_workers=1)
        end = time.perf_counter_ns()
        rows = sum(o.result.selections for o in report.outcomes)
        require(rows == self.rows, f"trials made {rows} selections, expected {self.rows}")
        calls = self.clock.calls
        require(len(calls) == self.TRIALS, "expected one world build per trial")
        bounds = [s for s, _ in calls[1:]] + [end]
        trials = [(s, stop) for (s, _), stop in zip(calls, bounds)]
        return Rep(
            wall_s=(end - start) / 1e9,
            rows=rows,
            attempted=self.rows,
            ok=rows,
            requests=trials,
            samples=[
                (s, stop, o.result.selections)
                for (s, stop), o in zip(trials, report.outcomes)
            ],
            setup=list(calls),
            identity=self._identity(report),
            ops=rows,
        )


# ---------------------------------------------------------------------------
# serve.steady / serve.history
# ---------------------------------------------------------------------------


@dataclass
class _Client:
    tenant: str
    client_id: str
    rng: np.random.Generator
    now: float


class ServeWorkload:
    """Closed-loop clients: each ranks, rates the winner against the
    world's true quality (with seeded noise), thinks for a seeded sim
    time, and repeats.  Offered load per tenant is clients/think_time
    requests per sim unit, kept below ``ServeConfig.tenant_rate``."""

    name = "serve"
    TENANTS = 2
    CLIENTS_PER_TENANT = 3
    #: rank + feedback rounds per client in one repetition: 1200 rank
    #: latencies, so each repetition's p99 has 12 samples beyond it
    ROUNDS = 200
    CHECK_ROUNDS = 20
    THINK_TIME = 0.05
    PRELOAD_ROWS = 0
    PRELOAD_RATERS = 2_000

    def __init__(self, seed: int, clock: SetupClock) -> None:
        self.seed = seed
        self.clock = clock
        self.config = ServeConfig()
        offered = self.CLIENTS_PER_TENANT / self.THINK_TIME
        require(
            offered < self.config.tenant_rate,
            f"offered load {offered}/unit per tenant >= tenant_rate",
        )
        self.spec = self._spec(self.ROUNDS)
        self.world = make_world(**self._world_params())
        self.preload = self._preload_feedback()

    def _spec(self, rounds: int) -> LoadSpec:
        return LoadSpec(
            tenants=self.TENANTS,
            clients_per_tenant=self.CLIENTS_PER_TENANT,
            requests_per_client=rounds,
            seed=self.seed,
            think_time=self.THINK_TIME,
            config=self.config,
        )

    def _world_params(self) -> Dict[str, Any]:
        spec = self.spec
        return dict(
            n_providers=spec.n_providers,
            services_per_provider=spec.services_per_provider,
            n_consumers=spec.tenants * spec.clients_per_tenant,
            seed=spec.seed,
            category=spec.category,
        )

    def _preload_feedback(self) -> List[Feedback]:
        n = self.PRELOAD_ROWS
        if not n:
            return []
        rng = SeedSequenceFactory(self.seed).rng("perfbench.preload")
        services = [svc.service_id for svc in self.world.services]
        truth = np.array([self.world.true_quality[s] for s in services])
        picks = rng.integers(len(services), size=n)
        raters = rng.integers(self.PRELOAD_RATERS, size=n)
        ratings = np.clip(truth[picks] + rng.normal(0.0, 0.1, size=n), 0.0, 1.0)
        return [
            Feedback(rater=f"history-{r:05d}", target=services[p], time=0.0, rating=v)
            for r, p, v in zip(raters.tolist(), picks.tolist(), ratings.tolist())
        ]

    def build_core(self) -> ServiceCore:
        """A fresh core (also the replay factory); set-up calls timed."""
        call = self.clock.call
        world = call(make_world, **self._world_params())
        registry = call(UDDIRegistry)
        model = call(lambda: default_registry(rng_seed=self.seed).create(self.spec.model))
        if self.preload:
            call(model.record_many, self.preload)
        core = call(ServiceCore, registry, model, config=self.config)
        call(core.bootstrap, [svc.description for svc in world.services])
        return core

    async def _client(
        self,
        service: SelectionService,
        client: _Client,
        rounds: int,
        tally: Dict[str, int],
        requests: List[Tuple[int, int]],
    ) -> None:
        spec = self.spec
        truth = self.world.true_quality

        def think() -> float:
            jitter = spec.think_jitter * (2.0 * float(client.rng.random()) - 1.0)
            return spec.think_time * (1.0 + jitter)

        for _ in range(rounds):
            started = time.perf_counter_ns()
            response = await service.rank_for_consumer(
                now=client.now,
                client_id=client.client_id,
                tenant=client.tenant,
                category=spec.category,
                perspective=client.client_id,
            )
            requests.append((started, time.perf_counter_ns()))
            tally[response.status] += 1
            client.now += think()
            if response.ok and response.ranking:
                target = response.ranking[0][0]
                noise = spec.rating_noise * (2.0 * float(client.rng.random()) - 1.0)
                rating = min(1.0, max(0.0, truth.get(target, 0.5) + noise))
                feedback = await service.submit_feedback(
                    now=client.now,
                    client_id=client.client_id,
                    tenant=client.tenant,
                    rater=client.client_id,
                    target=target,
                    rating=rating,
                )
                tally[feedback.status] += 1
                client.now += think()

    async def _drive(
        self, core: ServiceCore, rounds: int, requests: List[Tuple[int, int]]
    ) -> Dict[str, Dict[str, int]]:
        seeds = SeedSequenceFactory(self.seed)
        tally: Dict[str, Dict[str, int]] = {}
        clients = []
        for t in range(self.TENANTS):
            tenant = f"t{t}"
            tally[tenant] = {status: 0 for status in _STATUSES}
            for c in range(self.CLIENTS_PER_TENANT):
                client_id = f"{tenant}/c{c}"
                clients.append(
                    _Client(
                        tenant=tenant,
                        client_id=client_id,
                        rng=make_rng(seeds.spawn(f"loadgen.{client_id}")),
                        now=(len(clients) + 1) / 1024.0,
                    )
                )
        async with SelectionService(core, workers=self.spec.workers) as service:
            await asyncio.gather(
                *(
                    self._client(service, c, rounds, tally[c.tenant], requests)
                    for c in clients
                )
            )
        return tally

    def _meta(self) -> Dict[str, Any]:
        return {"seed": self.seed, "model": self.spec.model, "kind": "serve"}

    def _run(
        self, rounds: int
    ) -> Tuple[LoadReport, List[Tuple[int, int]], Tuple[int, int]]:
        """One live run: its report, rank round trips and client loop."""
        core = self.build_core()
        requests: List[Tuple[int, int]] = []
        with use_recorder(Recorder()) as rec:
            with self.clock.span("service.wait"):
                start = time.perf_counter_ns()
                tally = asyncio.run(self._drive(core, rounds, requests))
                loop = (start, time.perf_counter_ns())
            scores = core.final_scores()
            snapshot = rec.snapshot(meta=self._meta())
        report = LoadReport(
            spec=self._spec(rounds),
            workers=self.spec.workers,
            responses=tuple(core.responses),
            log=core.log,
            snapshot=snapshot,
            final_scores=scores,
            sla=serve_sla_table(snapshot.metrics, slo=self.config.slo),
            tally=tally,
        )
        return report, requests, loop

    def check(self) -> None:
        first, _, _ = self._run(self.CHECK_ROUNDS)
        second, _, _ = self._run(self.CHECK_ROUNDS)
        require(
            first.identity() == second.identity(),
            "two identical serve runs gave different identity hashes",
        )
        require(first.tally_matches_sla(), "client tally != server SLA counts")
        replay = replay_log(self.build_core, first.log, meta=self._meta())
        require(
            replay.responses_sha256 == first.responses_sha256
            and replay.scores_sha256 == first.scores_sha256
            and replay.trace_sha256 == first.trace_sha256,
            "replaying the ingest log diverged from the live run",
        )

    def rep(self) -> Rep:
        self.clock.reset()
        start = time.perf_counter_ns()
        report, requests, loop = self._run(self.ROUNDS)
        wall = (time.perf_counter_ns() - start) / 1e9
        require(report.tally_matches_sla(), "client tally != server SLA counts")
        counts = {s: sum(t[s] for t in report.tally.values()) for s in _STATUSES}
        attempted = sum(counts.values())
        # Offered load is below tenant_rate, so nothing may be throttled,
        # shed, expired, degraded or failed: ok_share must be exactly 1.
        require(counts["ok"] == attempted, f"not every request was ok: {counts}")
        feedback_ok = sum(
            1 for r in report.responses if r.kind == "feedback" and r.status == "ok"
        )
        return Rep(
            wall_s=wall,
            rows=feedback_ok,
            attempted=attempted,
            ok=counts["ok"],
            requests=requests,
            samples=[(loop[0], loop[1], feedback_ok)],
            setup=list(self.clock.calls),
            identity=tuple(sorted(report.identity().items())),
            ops=attempted,
        )


class ServeSteady(ServeWorkload):
    name = "serve.steady"


class ServeHistory(ServeWorkload):
    name = "serve.history"
    ROUNDS = 170
    CHECK_ROUNDS = 10
    PRELOAD_ROWS = 100_000


WORKLOADS: Dict[str, Any] = {
    cls.name: cls for cls in (WorldSharded, TrialsHarness, ServeSteady, ServeHistory)
}

