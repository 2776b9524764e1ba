"""Shared low-level utilities used by every subsystem.

This package deliberately has no dependency on any other ``repro``
subpackage; everything else builds on top of it.
"""

from repro.common.errors import (
    ConfigurationError,
    InvalidEventError,
    ReproError,
    RegistryError,
    RoutingError,
    SimulationError,
    UnknownEntityError,
)
from repro.common.ids import EntityId, IdFactory
from repro.common.mathutils import (
    clamp,
    cosine_similarity,
    exponential_decay,
    normalize_weights,
    pearson_correlation,
    safe_mean,
    weighted_mean,
)
from repro.common.randomness import SeedSequenceFactory, make_rng
from repro.common.records import (
    UNIT_SCALE,
    Feedback,
    Interaction,
    RatingScale,
    positive,
    ratings_by_rater,
)

__all__ = [
    "ConfigurationError",
    "EntityId",
    "Feedback",
    "IdFactory",
    "Interaction",
    "InvalidEventError",
    "RatingScale",
    "RegistryError",
    "ReproError",
    "RoutingError",
    "SeedSequenceFactory",
    "SimulationError",
    "UNIT_SCALE",
    "UnknownEntityError",
    "clamp",
    "cosine_similarity",
    "exponential_decay",
    "make_rng",
    "normalize_weights",
    "pearson_correlation",
    "positive",
    "ratings_by_rater",
    "safe_mean",
    "weighted_mean",
]
