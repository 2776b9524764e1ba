"""The selection framework: typology, facets, selection engine, scenarios.

This is the paper's own contribution made executable — the
three-criterion typology of Figure 4, multi-faceted trust aggregation,
and the selection loop that puts a reputation mechanism to work choosing
among redundant services.
"""

from repro.core.typology import (
    Architecture,
    Scope,
    Subject,
    Typology,
    TypologyTree,
    classification_tree,
)
from repro.core.decay import (
    DecayPolicy,
    ExponentialDecay,
    NoDecay,
    SlidingWindow,
)
from repro.core.facets import FacetTrust, combine_facets
from repro.core.selection import (
    SelectionEngine,
    SelectionPolicy,
    EpsilonGreedyPolicy,
    GreedyPolicy,
)
from repro.core.registry import (
    ModelInfo,
    ModelRegistry,
    default_registry,
)
from repro.core.scenarios import (
    DirectSelectionScenario,
    MediatedSelectionScenario,
    ScenarioResult,
)

__all__ = [
    "Architecture",
    "DecayPolicy",
    "DirectSelectionScenario",
    "EpsilonGreedyPolicy",
    "ExponentialDecay",
    "FacetTrust",
    "GreedyPolicy",
    "MediatedSelectionScenario",
    "ModelInfo",
    "ModelRegistry",
    "NoDecay",
    "ScenarioResult",
    "Scope",
    "SelectionEngine",
    "SelectionPolicy",
    "SlidingWindow",
    "Subject",
    "Typology",
    "TypologyTree",
    "classification_tree",
    "combine_facets",
    "default_registry",
]
