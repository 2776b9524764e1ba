"""One vectorized select-invoke-rate round over a block of consumers.

The paper's Figure 1A loop — select a service, invoke it, rate what
was observed — as numpy array operations over a whole block of
consumers and one round, for the sharded world runner
(:mod:`repro.experiments.sharded`).  Per row (consumer *k*, round *r*,
time *t*), with scores frozen for the epoch:

1. **choice** — explore with probability ``epsilon`` (a uniformly
   drawn service), else the epoch's exploit arm;
2. **truth** — the catalogue's service x metric quality matrix at
   ``profile_at(t)`` for *k*'s segment (offsets clamped to ``[0, 1]``),
   weighted by *k*'s preferences: the regret and accuracy bookkeeping
   of :class:`~repro.core.scenarios.DirectSelectionScenario`, ties on
   quality broken by the larger service id;
3. **invoke** — success with the chosen service's ``success_rate``;
   each metric observed as ``clip(q + noise * z, 0, 1)`` in quality
   space (the scalar engine's round trip through raw units is the
   identity up to rounding, so the kernel skips it);
4. **rate** — honest rating noise ``clip(obs + rating_noise * z, 0, 1)``
   per metric, then the preference-weighted overall rating; a failed
   invocation is rated 0.

Every draw is keyed: row *k* of round *r* reads Philox4x64-10 blocks
``0 .. draw_blocks(M) - 1`` at key ``(world key, consumer index)`` and
counter step *r* (:func:`repro.common.philox.keyed_uniforms`).  Uniform
slots 0/1/2 drive explore/pick/success, slot 3 is unused, and slots
``4, 5, ...`` are Box–Muller pairs giving ``M`` QoS-noise normals then
``M`` rating-noise normals.  A row therefore depends only on who the
consumer is, which round it is, and what the catalogue and scores
are — never on which other consumers share the block, which is how
the sharded runner gets ``1 == N`` shards by construction.

Only the honest rating strategy is vectorized;
:meth:`ConsumerBlock.from_consumers` rejects any other with a
:class:`~repro.common.errors.ConfigurationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.philox import box_muller, keyed_uniforms
from repro.services.consumer import (
    Consumer,
    PreferenceProfile,
    honest_rating_strategy,
)
from repro.services.provider import Service

__all__ = [
    "ROUND_STREAM",
    "CatalogState",
    "ConsumerBlock",
    "RoundRows",
    "catalog_at",
    "draw_blocks",
    "run_round",
]

#: counter stream tag of the per-round draws (step = global round)
ROUND_STREAM = 0
#: uniform slots of a row's draws (slot 3 is reserved)
EXPLORE, PICK, SUCCESS, NORMALS = 0, 1, 2, 4


def draw_blocks(n_metrics: int) -> int:
    """Philox blocks per row: 4 slots + 2 uniforms per metric."""
    return 1 + -(-2 * n_metrics // 4)


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
    """Array view of honest consumers: what the kernel reads of them."""

    #: global consumer index (the second Philox key word), int64
    indices: np.ndarray
    ids: List[EntityId]
    #: non-negative preference weight per (consumer, metric)
    weights: np.ndarray
    #: row sums of :attr:`weights`
    totals: np.ndarray
    segments: np.ndarray
    rating_noise: np.ndarray

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
        for consumer in consumers:
            if consumer.rating_strategy is not honest_rating_strategy:
                raise ConfigurationError(
                    f"consumer {consumer.consumer_id!r} rates with "
                    f"{getattr(consumer.rating_strategy, '__name__', '?')}; "
                    "the vectorized round supports only "
                    "honest_rating_strategy"
                )
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
        )

    def __len__(self) -> int:
        return len(self.indices)

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
        )


@dataclass(frozen=True)
class CatalogState:
    """The catalogue's ground truth at one simulation time."""

    #: sorted segment values; row *g* of :attr:`quality` is segment g
    segments: np.ndarray
    #: (segment, service, metric) true quality in [0, 1]
    quality: np.ndarray
    success_rate: np.ndarray
    noise: np.ndarray
    #: rank of each service id in sorted order (the tie-break)
    id_rank: np.ndarray


def catalog_at(
    services: Sequence[Service],
    metrics: Sequence[str],
    segments: Sequence[int],
    time: float,
) -> CatalogState:
    """Stack ``profile_at(time)`` of *services* for each of *segments*."""
    profiles = [svc.profile_at(time) for svc in services]
    seg = np.unique(np.asarray(segments, dtype=np.int64))
    quality = np.empty((len(seg), len(profiles), len(metrics)))
    for s, profile in enumerate(profiles):
        for m, name in enumerate(metrics):
            base = profile.quality[name]
            offsets = profile.segment_offsets.get(name, {})
            for g, segment in enumerate(seg.tolist()):
                quality[g, s, m] = base + offsets.get(segment, 0.0)
    ids = [svc.service_id for svc in services]
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return CatalogState(
        segments=seg,
        quality=np.clip(quality, 0.0, 1.0),
        success_rate=np.array([p.success_rate for p in profiles]),
        noise=np.array([p.noise for p in profiles]),
        id_rank=rank,
    )


@dataclass(frozen=True)
class RoundRows:
    """One round's rows, aligned with the block."""

    choice: np.ndarray
    success: np.ndarray
    rating: np.ndarray
    regret: np.ndarray
    accurate: np.ndarray


def run_round(
    block: ConsumerBlock,
    catalog: CatalogState,
    key: int,
    round_index: int,
    exploit: int,
    epsilon: float,
    tolerance: float,
) -> RoundRows:
    """Select, invoke and rate once for every consumer of *block*."""
    n_services = catalog.quality.shape[1]
    n_metrics = catalog.quality.shape[2]
    if not n_services:
        raise ConfigurationError("a round needs at least one service")
    u = keyed_uniforms(
        key, block.indices, round_index, ROUND_STREAM, draw_blocks(n_metrics)
    )
    pick = np.minimum(
        (u[:, PICK] * n_services).astype(np.int64), n_services - 1
    )
    choice = np.where(u[:, EXPLORE] < epsilon, pick, exploit)
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
    overall = _row_sum(filed * weights) / block.totals
    rating = np.where(success, np.clip(overall, 0.0, 1.0), 0.0)
    return RoundRows(
        choice=choice,
        success=success,
        rating=rating,
        regret=regret,
        accurate=accurate,
    )
