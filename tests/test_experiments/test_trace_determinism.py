"""Trace determinism: exported telemetry is byte-identical everywhere.

The observability subsystem inherits the runtime's ``parallel ==
serial`` contract and strengthens it to the byte level: the JSONL
export of a telemetry merge must be identical whether the trials ran
in a bare sequential loop, through the 1-worker serial fallback, or
fanned across a process pool — same bytes, same sha256, same file.
"""

from __future__ import annotations

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import (
    PROCESS_POOL,
    SERIAL,
    replication_specs,
    run_trial,
    run_trials,
)
from repro.obs.trace import TelemetrySnapshot, write_jsonl

#: Small worlds keep the pooled hypothesis examples fast.
SMALL_WORLD = dict(n_providers=3, services_per_provider=1, n_consumers=5)


def export_bytes(report) -> str:
    buffer = io.StringIO()
    write_jsonl(report.telemetry(), buffer)
    return buffer.getvalue()


class TestByteIdenticalTraces:
    @settings(max_examples=3, deadline=None)
    @given(
        base_seed=st.integers(min_value=0, max_value=2 ** 16),
        replications=st.integers(min_value=2, max_value=4),
        model=st.sampled_from(["beta", "eigentrust"]),
    )
    def test_pool_serial_and_bare_loop_export_same_bytes(
        self, base_seed, replications, model
    ):
        kwargs = dict(
            base_seed=base_seed,
            rounds=4,
            world_params=SMALL_WORLD,
            telemetry=True,
        )
        pooled = run_trials(
            replication_specs(model, replications, **kwargs), max_workers=4
        )
        serial = run_trials(
            replication_specs(model, replications, **kwargs), max_workers=1
        )
        assert pooled.mode == PROCESS_POOL
        assert serial.mode == SERIAL

        # A bare loop over run_trial, no pool machinery at all.
        specs = replication_specs(model, replications, **kwargs)
        bare = [run_trial(spec) for spec in specs]
        merged = TelemetrySnapshot.merge(
            [r.telemetry for r in bare],
            labels=[r.spec.label for r in bare],
        )
        buffer = io.StringIO()
        write_jsonl(merged, buffer)

        assert export_bytes(pooled) == export_bytes(serial)
        assert export_bytes(serial) == buffer.getvalue()

    def test_chunking_cannot_change_the_trace(self):
        specs = replication_specs(
            "beta",
            5,
            base_seed=11,
            rounds=3,
            world_params=SMALL_WORLD,
            telemetry=True,
        )
        fine = run_trials(specs, max_workers=3, chunksize=1)
        coarse = run_trials(specs, max_workers=3, chunksize=len(specs))
        assert export_bytes(fine) == export_bytes(coarse)

    def test_rerun_is_byte_identical(self):
        kwargs = dict(
            base_seed=29,
            rounds=3,
            world_params=SMALL_WORLD,
            telemetry=True,
        )
        first = run_trials(replication_specs("beta", 3, **kwargs), max_workers=2)
        second = run_trials(replication_specs("beta", 3, **kwargs), max_workers=2)
        assert export_bytes(first) == export_bytes(second)


class TestTelemetryPlumbing:
    def test_telemetry_off_by_default(self):
        report = run_trials(
            replication_specs(
                "beta", 2, base_seed=1, rounds=2, world_params=SMALL_WORLD
            )
        )
        assert all(r.telemetry is None for r in report.results)
        merged = report.telemetry()
        assert merged.events == [] and merged.meta["trials"] == 0

    def test_snapshot_crosses_process_boundary(self):
        report = run_trials(
            replication_specs(
                "beta",
                2,
                base_seed=2,
                rounds=2,
                world_params=SMALL_WORLD,
                telemetry=True,
            ),
            max_workers=2,
        )
        assert report.mode == PROCESS_POOL
        for result in report.results:
            assert result.telemetry is not None
            assert result.telemetry.metrics  # counters made it back

    def test_merged_events_carry_trial_labels(self):
        report = run_trials(
            replication_specs(
                "beta",
                2,
                base_seed=3,
                rounds=2,
                world_params=SMALL_WORLD,
                telemetry=True,
            )
        )
        merged = report.telemetry()
        labels = {dict(e.attrs).get("trial") for e in merged.events}
        assert labels == {"beta/rep0", "beta/rep1"}

    def test_trace_contains_model_instrumentation(self):
        report = run_trials(
            replication_specs(
                "eigentrust",
                1,
                base_seed=4,
                rounds=3,
                world_params=SMALL_WORLD,
                telemetry=True,
            )
        )
        merged = report.telemetry()
        names = set(merged.metrics)
        # The harness scores once per round (no per-row rank), so its
        # own round counter stands beside the model's instrumentation.
        assert "scenario.rows" in names
        assert "model.power_iterations" in names
        rounds = [e for e in merged.events if e.name == "scenario.round"]
        assert [dict(e.attrs)["round"] for e in rounds] == [0, 1, 2]
