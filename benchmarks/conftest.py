"""Shared helpers for the benchmark suite.

Every benchmark prints the table/series its figure or claim requires, so
running ``pytest benchmarks/ --benchmark-only -s`` regenerates the
paper's artefacts; the timing half of each benchmark exercises the hot
path through pytest-benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Mapping

import pytest

from repro.common.records import Feedback


#: the one tracked runtime baseline: sharded worlds and trial sweeps
RUNTIME_BENCH = Path(__file__).resolve().parent.parent / "BENCH_shard.json"


def write_bench_sections(path: Path, sections: Mapping[str, object]) -> None:
    """Replace *sections* of the tracked JSON baseline at *path*,
    keeping every other section, so benchmarks can share one file."""
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update(sections)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def warm_stream(
    n: int = 1000, raters: int = 20, targets: int = 10
) -> List[Feedback]:
    """The canonical deterministic warm-up stream every benchmark
    shares: *n* feedback records round-robining *raters* x *targets*
    with varied ratings and one facet."""
    return [
        Feedback(
            rater=f"r{i % raters}",
            target=f"svc-{i % targets}",
            time=float(i),
            rating=((i * 7) % 100) / 100.0,
            facet_ratings={"response_time": ((i * 3) % 100) / 100.0},
        )
        for i in range(n)
    ]


@pytest.fixture(scope="session")
def stream() -> List[Feedback]:
    """1,000 warm records over 20 raters and 10 targets."""
    return warm_stream()


@pytest.fixture(scope="session")
def wide_stream() -> List[Feedback]:
    """1,000 warm records over 100 distinct targets — the batch-ranking
    shape the score_many regression harness times."""
    return warm_stream(targets=100)


def print_table(title: str, header: Iterable[str], rows) -> None:
    """Render one experiment table to stdout."""
    header = list(header)
    rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print()
    print(f"== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


@pytest.fixture
def table_printer():
    return print_table
