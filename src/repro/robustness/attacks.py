"""Attack strategies: dishonest rating behaviours.

Each strategy is a :class:`RatingTransform`: a masked transform of the
(rows x facets) filed-rating matrix, which the vectorized round applies
to all of a strategy's liars at once, and also a
:class:`~repro.services.consumer.RatingStrategy` — a drop-in for the
honest strategy on any :class:`~repro.services.consumer.Consumer` — so
scalar and columnar simulations run one implementation of each.

Covered attacks (the ``*_strategy`` names are the constructors):

* **badmouthing** — report victims' quality as terrible,
* **ballot stuffing** — report allies' quality as perfect,
* **collusion rings** — stuff allies *and* badmouth everyone else,
* **complementary lying** — always report the opposite of experience,
* **random lying** — unreliable rather than strategic raters.

Whitewashing and Sybil floods are identity-level attacks; helpers here
mint the extra identities, and experiments re-join them to the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.randomness import RngLike, make_rng
from repro.common.records import Interaction
from repro.services.consumer import Consumer


def _hits(
    members: Optional[FrozenSet[EntityId]],
    catalogue: Sequence[EntityId],
    choice: np.ndarray,
) -> np.ndarray:
    """Rows whose rated service is in *members* (every row for None)."""
    if members is None:
        return np.ones(len(choice), dtype=bool)
    return np.array([sid in members for sid in catalogue], dtype=bool)[choice]


class RatingTransform:
    """A dishonest rating strategy as a masked transform of filed ratings.

    :meth:`apply` rewrites in place a (rows x facets) matrix of honest
    facet ratings and the ``present`` mask of rows that file a rating
    at all (a failed invocation files none unless the strategy rates it
    anyway); row *i* rated ``catalogue[choice[i]]`` and may read the
    row's strategy *uniforms* (a lie draw, then one per facet).  Called
    as a scalar strategy it runs on a one-row matrix whose columns are
    the facets (a single ``"overall"`` column when there are none).
    """

    def apply(
        self,
        filed: np.ndarray,
        present: np.ndarray,
        catalogue: Sequence[EntityId],
        choice: np.ndarray,
        uniforms: np.ndarray,
    ) -> None:
        raise NotImplementedError

    def _scalar_uniforms(self, n_facets: int) -> np.ndarray:
        return np.zeros((1, 1 + n_facets))

    def __call__(
        self,
        consumer: Optional[Consumer],
        interaction: Interaction,
        facet_scores: Dict[str, float],
    ) -> Dict[str, float]:
        columns = list(facet_scores) or ["overall"]
        filed = np.array([[facet_scores.get(c, 0.0) for c in columns]])
        present = np.array([bool(facet_scores)])
        u = self._scalar_uniforms(len(facet_scores))
        self.apply(filed, present, [interaction.service], np.zeros(1, dtype=int), u)
        return dict(zip(columns, filed[0].tolist())) if present[0] else {}


@dataclass(frozen=True)
class Badmouth(RatingTransform):
    """Report *victims* (every target when None) as terrible."""

    victims: Optional[FrozenSet[EntityId]] = None
    low: float = 0.05

    def __post_init__(self) -> None:
        if self.victims is not None:
            object.__setattr__(self, "victims", frozenset(self.victims))

    def apply(self, filed, present, catalogue, choice, uniforms) -> None:
        filed[_hits(self.victims, catalogue, choice) & present] = self.low


@dataclass(frozen=True)
class BallotStuffing(RatingTransform):
    """Report *allies* as excellent, even when the invocation failed."""

    allies: FrozenSet[EntityId]
    high: float = 0.95

    def __post_init__(self) -> None:
        object.__setattr__(self, "allies", frozenset(self.allies))
        if not self.allies:
            raise ConfigurationError(f"{type(self).__name__} needs an ally")

    def apply(self, filed, present, catalogue, choice, uniforms) -> None:
        ally = _hits(self.allies, catalogue, choice)
        filed[ally] = self.high
        present |= ally


@dataclass(frozen=True)
class Collusion(BallotStuffing):
    """The full ring: stuff allies, badmouth every competitor."""

    low: float = 0.05

    def apply(self, filed, present, catalogue, choice, uniforms) -> None:
        filed[~_hits(self.allies, catalogue, choice) & present] = self.low
        super().apply(filed, present, catalogue, choice, uniforms)


@dataclass(frozen=True)
class ComplementaryLiar(RatingTransform):
    """Always report the complement of the honest experience."""

    def apply(self, filed, present, catalogue, choice, uniforms) -> None:
        filed[present] = 1.0 - filed[present]


@dataclass(frozen=True)
class RandomLiar(RatingTransform):
    """Replace a report with uniform noise with some probability.

    Uniform 0 of a row decides (``u < lie_probability`` lies) and
    uniforms ``1 ..`` are the facet values.  As a scalar strategy the
    uniforms come from :attr:`rng`: one per report, plus one per facet
    when it lies.
    """

    lie_probability: float = 0.5
    rng: RngLike = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.lie_probability <= 1.0:
            raise ConfigurationError("lie_probability must be in [0, 1]")
        object.__setattr__(self, "rng", make_rng(self.rng))

    def _scalar_uniforms(self, n_facets: int) -> np.ndarray:
        gen = make_rng(self.rng)  # the generator __post_init__ made
        u = super()._scalar_uniforms(n_facets)
        u[0, 0] = gen.random()
        if u[0, 0] < self.lie_probability:
            u[0, 1:] = gen.random(n_facets)
        return u

    def apply(self, filed, present, catalogue, choice, uniforms) -> None:
        lie = (uniforms[:, 0] < self.lie_probability) & present
        filed[lie] = uniforms[lie, 1 : 1 + filed.shape[1]]


badmouth_strategy = Badmouth
ballot_stuffing_strategy = BallotStuffing
collusion_strategy = Collusion
complementary_liar_strategy = ComplementaryLiar
random_liar_strategy = RandomLiar


@dataclass
class AttackPlan:
    """A population-level attack configuration.

    Attributes:
        liar_fraction: share of consumers given the dishonest strategy.
        strategy_factory: builds one strategy per liar (factories may
            close over shared state, e.g. a collusion ring's ally list).
        sybil_count: extra fake rater identities the attacker controls
            (each files the same dishonest reports).
        whitewash: liars re-join under fresh identities when caught
            (experiments interpret this flag).
    """

    liar_fraction: float = 0.0
    strategy_factory: Optional[object] = None
    sybil_count: int = 0
    whitewash: bool = False
    sybil_ids: List[EntityId] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.liar_fraction <= 1.0:
            raise ConfigurationError("liar_fraction must be in [0, 1]")
        if self.sybil_count < 0:
            raise ConfigurationError("sybil_count must be >= 0")

    def liars_among(self, consumers: "list[Consumer]") -> List[Consumer]:
        """The deterministic liar subset (first k consumers by id)."""
        k = int(round(self.liar_fraction * len(consumers)))
        ordered = sorted(consumers, key=lambda c: c.consumer_id)
        return ordered[:k]

    def apply(self, consumers: "list[Consumer]") -> List[Consumer]:
        """Install the dishonest strategy on the liar subset.

        Returns the consumers chosen as liars.
        """
        if self.strategy_factory is None or self.liar_fraction <= 0:
            return []
        liars = self.liars_among(consumers)
        for liar in liars:
            liar.rating_strategy = self.strategy_factory()  # type: ignore[operator]
        return liars

    def mint_sybils(self, prefix: str = "sybil") -> List[EntityId]:
        """Create the attacker's fake rater identities."""
        self.sybil_ids = [f"{prefix}-{i:03d}" for i in range(self.sybil_count)]
        return list(self.sybil_ids)
