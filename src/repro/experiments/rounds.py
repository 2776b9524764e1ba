"""One vectorized select-invoke-rate round over a block of consumers.

The paper's Figure 1A loop — select a service, invoke it, rate what
was observed — as numpy array operations over a whole block of
consumers and one round: the one such loop, run by the trial harness
(:class:`~repro.core.scenarios.DirectSelectionScenario`) and the
sharded world runner (:mod:`repro.experiments.sharded`).  Per row
(consumer *k*, round *r*, time *t*), with scores frozen for the round:

1. **choice** — explore with probability ``epsilon`` (a uniformly
   drawn service), else the top-scored service, ties within 1e-12
   broken uniformly (:func:`exploit_arms`; scores are one vector, or
   one row per consumer for a personalized model);
2. **truth** — the catalogue's service x metric quality matrix at
   ``profile_at(t)`` for *k*'s segment (offsets clamped to ``[0, 1]``),
   weighted by *k*'s preferences: regret and accuracy, ties on quality
   broken by the larger service id;
3. **invoke** — success with the chosen service's ``success_rate``;
   each metric observed as ``clip(q + noise * z, 0, 1)`` in quality
   space (the scalar engine's round trip through raw units is the
   identity up to rounding, so the kernel skips it);
4. **rate** — rating noise ``clip(obs + rating_noise * z, 0, 1)`` per
   metric, the liars' columnar strategies
   (:class:`~repro.robustness.attacks.RatingTransform`, failed
   invocations included), then the preference-weighted overall of the
   clipped facets; a row that files nothing is rated 0.

Every draw is keyed: row *k* of round *r* reads Philox4x64-10 blocks
``0 .. draw_blocks(M) - 1`` at key ``(root key, consumer index)`` and
counter step *r* (:func:`repro.common.philox.keyed_uniforms`, which
draws many steps in one call).  Uniform slots 0/1/2/3 drive
explore/pick/success/tie-break, slots ``4, 5, ...`` are Box–Muller
pairs giving ``M`` QoS-noise normals then ``M`` rating-noise normals,
and ``1 + M`` strategy slots follow when the block holds a liar.  A
row therefore depends only on who the consumer is, which round it is,
and what the catalogue and scores are — never on which other
consumers share the block, which is how the sharded runner gets
``1 == N`` shards by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.philox import box_muller, keyed_uniforms
from repro.robustness.attacks import RatingTransform
from repro.services.consumer import (
    Consumer,
    PreferenceProfile,
    honest_rating_strategy,
)
from repro.services.provider import Service
from repro.services.qos import QoSProfile

__all__ = [
    "ROUND_STREAM",
    "TIE_TOLERANCE",
    "CatalogState",
    "ConsumerBlock",
    "RoundRows",
    "catalog_at",
    "draw_blocks",
    "exploit_arms",
    "profiled_metrics",
    "round_uniforms",
    "run_round",
]

#: counter stream tag of the per-round draws (step = global round)
ROUND_STREAM = 0
#: uniform slots of a row's draws
EXPLORE, PICK, SUCCESS, TIE, NORMALS = 0, 1, 2, 3, 4
#: scores this close to the top count as tied for the exploit arm
TIE_TOLERANCE = 1e-12


def draw_blocks(n_metrics: int, lies: bool = False) -> int:
    """Philox blocks per row: 4 slots + 2 uniforms per metric, plus
    ``1 + n_metrics`` strategy slots when *lies*."""
    words = 4 + 2 * n_metrics + (1 + n_metrics if lies else 0)
    return -(-words // 4)


def _row_sum(columns: np.ndarray) -> np.ndarray:
    """Left-to-right sum over the columns of a 2-d array.

    Elementwise adds only, so a row's sum never depends on how many
    rows share the array (a reduction may pick its loop by shape).
    """
    total = columns[:, 0].copy()
    for m in range(1, columns.shape[1]):
        total += columns[:, m]
    return total


@dataclass(frozen=True)
class ConsumerBlock:
    """Array view of consumers: what the kernel reads of them."""

    #: global consumer index (the second Philox key word), int64
    indices: np.ndarray
    ids: List[EntityId]
    #: non-negative preference weight per (consumer, metric)
    weights: np.ndarray
    #: row sums of :attr:`weights`
    totals: np.ndarray
    segments: np.ndarray
    rating_noise: np.ndarray
    #: the distinct dishonest strategies of the block
    strategies: Tuple[RatingTransform, ...]
    #: position in :attr:`strategies` per consumer, -1 for honest ones
    strategy_of: np.ndarray

    @classmethod
    def from_consumers(
        cls,
        consumers: Sequence[Consumer],
        indices: Sequence[int],
        metrics: Sequence[str],
    ) -> "ConsumerBlock":
        if len(consumers) != len(indices):
            raise ConfigurationError(
                f"{len(consumers)} consumers for {len(indices)} indices"
            )
        if not metrics:
            raise ConfigurationError("a round needs at least one metric")
        groups: Dict[RatingTransform, int] = {}
        strategy_of = np.full(len(consumers), -1, dtype=np.int64)
        for k, consumer in enumerate(consumers):
            strategy = consumer.rating_strategy
            if strategy is honest_rating_strategy:
                continue
            if not isinstance(strategy, RatingTransform):
                raise ConfigurationError(
                    f"consumer {consumer.consumer_id!r} rates with {strategy!r}, "
                    "neither honest_rating_strategy nor a RatingTransform"
                )
            strategy_of[k] = groups.setdefault(strategy, len(groups))
        rows: Dict[int, List[float]] = {}  # by profile: worlds share them

        def weight_row(profile: PreferenceProfile) -> List[float]:
            row = rows.get(id(profile))
            if row is None:
                row = rows[id(profile)] = [
                    max(profile.weights.get(m, 0.0), 0.0) for m in metrics
                ]
            return row

        weights = np.array(
            [weight_row(c.preferences) for c in consumers], dtype=np.float64
        ).reshape(len(consumers), len(metrics))
        # No positive weight: both overalls fall back to the plain mean.
        weights[_row_sum(weights) <= 0] = 1.0
        return cls(
            indices=np.asarray(indices, dtype=np.int64),
            ids=[c.consumer_id for c in consumers],
            weights=weights,
            totals=_row_sum(weights),
            segments=np.array([c.segment for c in consumers], dtype=np.int64),
            rating_noise=np.array(
                [c.rating_noise for c in consumers], dtype=np.float64
            ),
            strategies=tuple(groups),
            strategy_of=strategy_of,
        )

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def liars(self) -> np.ndarray:
        """Mask of the consumers that rate with a dishonest strategy."""
        return self.strategy_of >= 0

    def take(self, positions: Sequence[int]) -> "ConsumerBlock":
        """The sub-block at *positions* (in that order)."""
        pos = np.asarray(positions, dtype=np.int64)
        return ConsumerBlock(
            indices=self.indices[pos],
            ids=[self.ids[p] for p in pos.tolist()],
            weights=self.weights[pos],
            totals=self.totals[pos],
            segments=self.segments[pos],
            rating_noise=self.rating_noise[pos],
            strategies=self.strategies,
            strategy_of=self.strategy_of[pos],
        )


def profiled_metrics(services: Sequence[Service], names: Sequence[str]) -> List[str]:
    """The metrics of *names* the services profile; each must profile
    exactly those."""
    metrics = [m for m in names if m in services[0].profile.quality]
    for svc in services:
        if set(svc.profile.quality) != set(metrics):
            raise ConfigurationError(
                f"service {svc.service_id!r} profiles "
                f"{sorted(svc.profile.quality)}, not the metrics {metrics}"
            )
    return metrics


def round_uniforms(
    block: ConsumerBlock, key: int, steps: object, n_metrics: int
) -> np.ndarray:
    """The block's draws at round *steps* (an int, or a 1-d array for
    one plane per step)."""
    blocks = draw_blocks(n_metrics, bool(block.strategies))
    return keyed_uniforms(key, block.indices, steps, ROUND_STREAM, blocks)


@dataclass(frozen=True)
class CatalogState:
    """The catalogue's ground truth at one simulation time."""

    #: sorted segment values; row *g* of :attr:`quality` is segment g
    segments: np.ndarray
    #: (segment, service, metric) true quality in [0, 1]
    quality: np.ndarray
    success_rate: np.ndarray
    noise: np.ndarray
    #: the services' ids, in catalogue order
    ids: Tuple[EntityId, ...]
    #: rank of each service id in sorted order (the tie-break)
    id_rank: np.ndarray
    #: the ``profile_at`` objects this state was built from
    profiles: Tuple[QoSProfile, ...] = ()


def catalog_at(
    services: Sequence[Service],
    metrics: Sequence[str],
    segments: Sequence[int],
    time: float,
    previous: Optional[CatalogState] = None,
) -> CatalogState:
    """Stack ``profile_at(time)`` of *services* for each of *segments*;
    *previous* (built from the same arguments but *time*) comes back as
    is while every ``profile_at`` returns the same objects."""
    profiles = tuple(svc.profile_at(time) for svc in services)
    if previous is not None and all(
        p is q for p, q in zip(profiles, previous.profiles)
    ):
        return previous
    # sorted(set()), not np.unique: that would import numpy.ma (~2 MB).
    seg = np.array(sorted(set(np.asarray(segments).tolist())), dtype=np.int64)
    quality = np.empty((len(seg), len(profiles), len(metrics)))
    for s, profile in enumerate(profiles):
        for m, name in enumerate(metrics):
            base = profile.quality[name]
            offsets = profile.segment_offsets.get(name, {})
            for g, segment in enumerate(seg.tolist()):
                quality[g, s, m] = base + offsets.get(segment, 0.0)
    ids = tuple(svc.service_id for svc in services)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return CatalogState(
        segments=seg,
        quality=np.clip(quality, 0.0, 1.0),
        success_rate=np.array([p.success_rate for p in profiles]),
        noise=np.array([p.noise for p in profiles]),
        ids=ids,
        id_rank=rank,
        profiles=profiles,
    )


def exploit_arms(scores: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """Each row's top-scored service: the ``floor(tie * count)``-th, in
    catalogue order, of the services within :data:`TIE_TOLERANCE` of
    the top of a shared ``(services,)`` vector or of the row's line of
    a ``(rows, services)`` matrix (one top service: a scalar)."""
    tied = scores >= scores.max(axis=-1, keepdims=True) - TIE_TOLERANCE
    if tied.ndim == 1:  # one vector for every row: index its tied arms
        arms = np.flatnonzero(tied)
        if len(arms) == 1:
            return arms[0]
        return arms[np.minimum((tie * len(arms)).astype(np.int64), len(arms) - 1)]
    count = tied.sum(axis=1)
    pick = np.minimum((tie * count).astype(np.int64), count - 1)
    return np.argmax(np.cumsum(tied, axis=1) > pick[:, None], axis=1)


@dataclass(frozen=True)
class RoundRows:
    """One round's rows, aligned with the block."""

    choice: np.ndarray
    success: np.ndarray
    rating: np.ndarray
    regret: np.ndarray
    accurate: np.ndarray
    #: (rows, metrics) observed quality of the chosen service
    observed: np.ndarray
    #: (rows, metrics) facet ratings as filed (after any strategy)
    filed: np.ndarray
    #: rows that file a rating (successes; failures a strategy rates)
    rated: np.ndarray


def run_round(
    block: ConsumerBlock,
    catalog: CatalogState,
    uniforms: np.ndarray,
    scores: np.ndarray,
    epsilon: float,
    tolerance: float,
) -> RoundRows:
    """Select, invoke and rate once for every consumer of *block*, on
    its draws for this round (:func:`round_uniforms`)."""
    n_services = catalog.quality.shape[1]
    n_metrics = catalog.quality.shape[2]
    if not n_services:
        raise ConfigurationError("a round needs at least one service")
    u = uniforms
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[-1] != n_services:
        raise ConfigurationError(
            f"scores of shape {scores.shape} for {n_services} services"
        )
    pick = np.minimum(
        (u[:, PICK] * n_services).astype(np.int64), n_services - 1
    )
    choice = np.where(
        u[:, EXPLORE] < epsilon, pick, exploit_arms(scores, u[:, TIE])
    )
    slot = np.searchsorted(catalog.segments, block.segments)
    weights = block.weights

    # Ground truth for every (consumer, service): regret and accuracy.
    truth = np.zeros((len(block), n_services))
    for m in range(n_metrics):
        truth += weights[:, m, None] * catalog.quality[:, :, m][slot]
    truth /= block.totals[:, None]
    optimal = truth.max(axis=1)
    tied = truth == optimal[:, None]
    best = np.argmax(np.where(tied, catalog.id_rank, -1), axis=1)
    rows = np.arange(len(block))
    regret = optimal - truth[rows, choice]
    accurate = (choice == best) | (regret <= tolerance)

    # Invoke and rate the chosen service.
    success = u[:, SUCCESS] < catalog.success_rate[choice]
    pair = slice(NORMALS, NORMALS + 2 * n_metrics)
    z_cos, z_sin = box_muller(u[:, pair][:, 0::2], u[:, pair][:, 1::2])
    normals = np.empty((len(block), 2 * n_metrics))
    normals[:, 0::2] = z_cos
    normals[:, 1::2] = z_sin
    observed = np.clip(
        catalog.quality[slot, choice]
        + catalog.noise[choice, None] * normals[:, :n_metrics],
        0.0,
        1.0,
    )
    filed = np.clip(
        observed + block.rating_noise[:, None] * normals[:, n_metrics:],
        0.0,
        1.0,
    )
    rated = success.copy()
    lie = u[:, NORMALS + 2 * n_metrics :]  # the strategy slots, if drawn
    for g, strategy in enumerate(block.strategies):
        mine = block.strategy_of == g
        part, present = filed[mine], rated[mine]
        strategy.apply(part, present, catalog.ids, choice[mine], lie[mine])
        filed[mine], rated[mine] = np.clip(part, 0.0, 1.0), present
    overall = _row_sum(filed * weights) / block.totals
    rating = np.where(rated, np.clip(overall, 0.0, 1.0), 0.0)
    return RoundRows(
        choice=choice,
        success=success,
        rating=rating,
        regret=regret,
        accurate=accurate,
        observed=observed,
        filed=filed,
        rated=rated,
    )
