"""Experiment harness: workload generators, metrics, shared drivers.

Benchmarks under ``benchmarks/`` are thin: they call into this package
to build a world, run a mechanism on it, and print the rows/series each
figure or claim requires.  Examples reuse the same pieces.
"""

from repro.experiments.workloads import (
    World,
    make_consumers,
    make_world,
    uniform_preferences,
)
from repro.experiments.metrics import (
    kendall_tau,
    ranking_quality,
    score_mae,
    spearman_rho,
    top_k_precision,
)
from repro.experiments.harness import (
    SelectionOutcome,
    run_selection_experiment,
)
from repro.experiments.parallel import (
    AttackSpec,
    TrialResult,
    TrialRunReport,
    TrialSpec,
    group_sweep,
    jobs_from_env,
    parallel_map,
    register_world_builder,
    replication_specs,
    run_trial,
    run_trials,
    sweep_specs,
)
from repro.experiments.chaos import (
    ChaosConfig,
    ChaosReport,
    run_chaos_comparison,
    run_chaos_deployment,
)

__all__ = [
    "AttackSpec",
    "ChaosConfig",
    "ChaosReport",
    "SelectionOutcome",
    "TrialResult",
    "TrialRunReport",
    "TrialSpec",
    "World",
    "group_sweep",
    "jobs_from_env",
    "kendall_tau",
    "make_consumers",
    "make_world",
    "parallel_map",
    "ranking_quality",
    "register_world_builder",
    "replication_specs",
    "run_chaos_comparison",
    "run_chaos_deployment",
    "run_selection_experiment",
    "run_trial",
    "run_trials",
    "score_mae",
    "spearman_rho",
    "sweep_specs",
    "top_k_precision",
    "uniform_preferences",
]
