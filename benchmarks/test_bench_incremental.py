"""Rank-after-append benchmark: incremental folds vs history size.

A served rank under sustained ingest pays for the rows appended since
the previous rank.  Beta, eBay and Sporas fold only those rows into
running per-target state (``StoreBackedModel._sync``), so the cost of
"append k rows, then rank 100 targets" must not grow with the history
behind it.  For each model and k in {1, 64}, the scoring half of a
rank — ``score_many`` over the 100 candidates, which folds the new
rows — is timed on preloaded histories of 10^4, 10^5 and 10^6 rows and
written to the ``incremental`` section of ``BENCH_models.json``
(``rank()``'s sort adds a constant that does not depend on history).

The gate (ROADMAP item 2): the cost at 10^6 rows is at most
``GROWTH_LIMIT`` times the cost at 10^4, widened by
``NOISE_TOLERANCE`` for shared-runner jitter.  The per-version
recompute kernels this replaced grew 16-44x over the same range.

Parity is asserted at every history size: after the timed appends the
incremental scores equal a from-scratch fold over the same store.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.common.records import Feedback
from repro.core.registry import default_registry
from repro.models.base import StoreBackedModel

REGISTRY = default_registry(rng_seed=0)
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_models.json"

MODELS = ("beta", "ebay", "sporas")
HISTORIES = (10_000, 100_000, 1_000_000)
APPENDS = (1, 64)
BATCH_SIZE = 100
N_RATERS = 4000
N_TARGETS = 1000
REPEATS = 41
#: the allowed cost growth from the smallest to the largest history
GROWTH_LIMIT = 2.0
#: noise margin on top of GROWTH_LIMIT: each timing is a median of
#: sub-millisecond calls on a shared runner; a rescan of history shows
#: up as 16x or more, far beyond it
NOISE_TOLERANCE = 1.25


def _preloaded(name: str, n: int) -> StoreBackedModel:
    """*name* holding *n* deterministic overall rows; raters and
    targets are disjoint (the consumer-rates-service setting, where
    Sporas folds on its rounds kernel)."""
    model = REGISTRY.create(name)
    i = np.arange(n)
    raters = [f"r{c}" for c in range(N_RATERS)]
    targets = [f"svc-{c}" for c in range(N_TARGETS)]
    model.record_columns(
        [raters[c] for c in ((i * 13) % N_RATERS).tolist()],
        [targets[c] for c in ((i * 7) % N_TARGETS).tolist()],
        (((i * 7919) % 1000) / 1000.0).tolist(),
        i.astype(np.float64).tolist(),
    )
    return model


def _rank_after_appends(
    models: List[StoreBackedModel], batch: List[str], k: int
) -> List[int]:
    """Median ns of one ``score_many`` of *batch* per model, each timed
    right after *k* untimed appends.  Repetitions visit the models in
    turn, so drift in host speed lands on every history size alike."""
    samples: List[List[int]] = [[] for _ in models]
    for rep in range(REPEATS):
        for model, timings in zip(models, samples):
            t = float(len(model._store))
            for j in range(k):
                model.record(
                    Feedback(
                        rater=f"r{(rep * 31 + j) % N_RATERS}",
                        target=batch[(rep + j) % BATCH_SIZE],
                        time=t + j,
                        rating=((rep * 64 + j) * 7919 % 1000) / 1000.0,
                    )
                )
            start = time.perf_counter_ns()
            model.score_many(batch)
            timings.append(time.perf_counter_ns() - start)
    return [int(statistics.median(timings)) for timings in samples]


def _assert_fold_parity(name: str, model: StoreBackedModel, batch: List[str]):
    fresh = REGISTRY.create(name)
    fresh._store = model._store
    assert fresh.folded_rows == 0
    assert model.score_many(batch) == fresh.score_many(batch), (
        f"{name}: incremental fold diverges from the from-scratch fold"
    )


def _write_section(section: Dict[str, object]) -> None:
    payload = (
        json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    )
    payload["incremental"] = section
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def test_rank_after_append_is_flat_in_history(table_printer):
    batch = [f"svc-{i}" for i in range(BATCH_SIZE)]
    report: Dict[str, Dict[str, Dict[str, object]]] = {}
    for name in MODELS:
        models = [_preloaded(name, n) for n in HISTORIES]
        for model in models:
            model.score_many(batch)  # fold the preloaded history untimed
        report[name] = {}
        for k in APPENDS:
            ns = _rank_after_appends(models, batch, k)
            report[name][str(k)] = {
                "rank_ns": {str(n): v for n, v in zip(HISTORIES, ns)},
                "growth": round(ns[-1] / ns[0], 2),
            }
        for model in models:
            _assert_fold_parity(name, model, batch)
        del models  # free the 10^6-row store before the next build

    _write_section(
        {
            "batch_size": BATCH_SIZE,
            "histories": list(HISTORIES),
            "appends": list(APPENDS),
            "repeats": REPEATS,
            "statistic": (
                "median ns of score_many over the rank batch after k "
                "untimed appends"
            ),
            "growth_limit": GROWTH_LIMIT,
            "noise_tolerance": NOISE_TOLERANCE,
            "models": report,
        }
    )
    table_printer(
        f"Scoring a {BATCH_SIZE}-target rank after k appends (median ns)",
        ["mechanism", "k"]
        + [f"{n:.0e} rows" for n in HISTORIES]
        + ["growth"],
        [
            [name, k]
            + [report[name][str(k)]["rank_ns"][str(n)] for n in HISTORIES]
            + [f"x{report[name][str(k)]['growth']}"]
            for name in MODELS
            for k in APPENDS
        ],
    )
    limit = GROWTH_LIMIT * NOISE_TOLERANCE
    grown = {
        f"{name} k={k}": report[name][str(k)]["growth"]
        for name in MODELS
        for k in APPENDS
        if report[name][str(k)]["growth"] > limit
    }
    assert not grown, (
        f"rank-after-append cost grew > {GROWTH_LIMIT}x (x{NOISE_TOLERANCE} "
        f"noise) from {HISTORIES[0]} to {HISTORIES[-1]} rows: {grown}"
    )
