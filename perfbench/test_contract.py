"""BENCHMARK.json agrees with what the benchmark actually reports."""

import json
import re
from pathlib import Path

import pytest

import run
from hostspeed import wall_seconds
from layers import PER_LAYER
from workloads import WORKLOADS, Rep

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class _FakeWorkload:
    """Repetitions with scripted intervals (nanoseconds from 0)."""

    name = "fake"

    def __init__(self):
        self.calls = 0

    def rep(self):
        self.calls += 1
        return Rep(
            wall_s=1.0 + self.calls,
            rows=10,
            attempted=12,
            ok=11,
            requests=[(0, 1_000_000 * self.calls), (0, 2_000_000)],
            # 0.5 s of work around 0.25 s of set-up
            samples=[(0, 750_000_000, 10)],
            setup=[(100, 250_000_100)],
            identity="same",
            ops=12,
        )


def test_workloads_match_the_benchmark():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_per_layer_list_is_what_the_traced_run_reports():
    assert BENCHMARK["per_layer"] == PER_LAYER


def test_end_to_end_list_is_what_the_untraced_run_reports():
    metrics, reps = run.end_to_end(_FakeWorkload(), seconds=0.0)
    assert len(reps) == run.MIN_REPS
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }


def test_summary_of_wall_intervals():
    fake = _FakeWorkload()
    metrics = run.summarise([fake.rep() for _ in range(3)], wall_seconds)
    assert metrics["ok_share"][0] == 11 / 12
    assert metrics["us_per_row"][0] == pytest.approx(0.5 / 10 * 1e6)
    assert metrics["setup_s"][0] == pytest.approx(0.25)
    # per-rep p50 of {1, 2}, {2, 2}, {3, 2} ms by nearest rank, then the median
    assert metrics["req_p50_ms"][0] == pytest.approx(2.0)


def test_names_are_unique_and_well_formed():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
