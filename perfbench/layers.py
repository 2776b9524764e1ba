"""Which program functions the traced run wraps, and the per-layer metrics.

Every layer is named ``<module>.<what>`` after the ``src/repro`` module
whose public entry points it times.  Targets are resolved by import
path at install time; a target a later refactor renamed or removed is
skipped (and listed on stderr), so the traced run keeps working and
reports that layer's share as 0.

The mapping from each layer metric to the end-to-end metric it should
move, and on which workload, is in ``NOTES.md``.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

from spans import Tracer

#: (module, class, attribute, layer, LayerProbe hook method or None);
#: the reputation models' score_many/record/record_many are added per
#: subclass by :meth:`LayerProbe.install`
TARGETS: Tuple[Tuple[str, str, str, str, Optional[str]], ...] = (
    ("repro.experiments.sharded", "ShardRuntime", "__init__", "sharded.runtime_init", None),
    ("repro.experiments.sharded", "ShardRuntime", "run_epoch", "sharded.round_self", None),
    ("repro.experiments.sharded", "_Coordinator", "apply", "sharded.merge", None),
    ("repro.services.invocation", "InvocationEngine", "invoke", "invocation.invoke_self", None),
    ("repro.services.qos", "QoSProfile", "sample", "qos.sample", None),
    ("repro.services.consumer", "Consumer", "rate", "consumer.rate", None),
    ("repro.services.provider", "Service", "true_overall", "provider.true_overall", None),
    ("repro.core.scenarios", "DirectSelectionScenario", "run_round", "scenarios.round_self", None),
    ("repro.core.selection", "SelectionEngine", "select", "selection.select_self", None),
    ("repro.core.selection", "SelectionEngine", "rank", "selection.rank_self", None),
    ("repro.serve.core", "ServiceCore", "execute", "core.execute_self", None),
    ("repro.serve.protocol", "IngestLog", "append", "protocol.log_append", None),
    ("repro.obs.recorder", "Recorder", "advance", "obs.recorder", None),
    ("repro.obs.recorder", "Recorder", "count", "obs.recorder", None),
    ("repro.obs.recorder", "Recorder", "gauge", "obs.recorder", None),
    ("repro.obs.recorder", "Recorder", "observe", "obs.recorder", None),
    ("repro.obs.recorder", "Recorder", "event", "obs.recorder", None),
    ("repro.obs.recorder", "Recorder", "span", "obs.recorder", None),
    ("repro.store.store", "EventStore", "append", "store.append", "_appended"),
    ("repro.store.store", "EventStore", "extend", "store.extend", "_extended"),
    ("repro.store.store", "EventStore", "merge_from", "store.merge_from", "_merged"),
    ("repro.serve.ingest", "AdmissionController", "admit", "ingest.admit", "_admitted"),
    ("repro.serve.core", "ServiceCore", "admit_batch", "core.admit_batch_self", "_batch"),
)

#: layers whose self time is reported as a share of the traced wall
SHARE_LAYERS: Tuple[str, ...] = (
    "workloads.build",
    "sharded.runtime_init",
    "sharded.round_self",
    "sharded.merge",
    "invocation.invoke_self",
    "qos.sample",
    "consumer.rate",
    "provider.true_overall",
    "store.append",
    "store.extend",
    "store.merge_from",
    "scenarios.round_self",
    "selection.select_self",
    "selection.rank_self",
    "models.score_many",
    "models.record",
    "ingest.admit",
    "core.admit_batch_self",
    "core.execute_self",
    "protocol.log_append",
    "obs.recorder",
    "service.wait",
)

#: layers whose outermost call count is reported (per repetition)
CALL_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("invocation.invoke_calls", "invocation.invoke_self"),
    ("qos.sample_calls", "qos.sample"),
    ("consumer.rate_calls", "consumer.rate"),
    ("provider.true_overall_calls", "provider.true_overall"),
    ("selection.select_calls", "selection.select_self"),
    ("models.score_many_calls", "models.score_many"),
    ("obs.recorder_calls", "obs.recorder"),
)

#: counters the hooks keep (per repetition)
COUNTERS: Tuple[str, ...] = (
    "store.rows",
    "ingest.admitted",
    "ingest.throttled",
    "ingest.shed",
)


def _per_layer_spec() -> List[Dict[str, str]]:
    spec = [
        {"name": f"{layer}_share", "unit": "share", "better": "lower"}
        for layer in SHARE_LAYERS
    ]
    spec.append({"name": "residual_share", "unit": "share", "better": "lower"})
    spec += [
        {"name": name, "unit": "count", "better": "lower"}
        for name, _ in CALL_LAYERS
    ]
    spec += [
        {"name": "store.rows", "unit": "count", "better": "lower"},
        {"name": "ingest.admitted", "unit": "count", "better": "higher"},
        {"name": "ingest.throttled", "unit": "count", "better": "lower"},
        {"name": "ingest.shed", "unit": "count", "better": "lower"},
        {"name": "core.batch_size_mean", "unit": "count", "better": "higher"},
        {"name": "models.score_recompute_share", "unit": "share", "better": "lower"},
        {"name": "models.history_rows_per_score", "unit": "rows", "better": "lower"},
        {"name": "trace.wall_s", "unit": "s", "better": "lower"},
        {"name": "trace.us_per_op", "unit": "us", "better": "lower"},
        {"name": "trace.overhead_share", "unit": "share", "better": "lower"},
        {"name": "trace.spans_per_rep", "unit": "count", "better": "lower"},
    ]
    return spec


#: the ``per_layer`` list of BENCHMARK.json, in report order
PER_LAYER: List[Dict[str, str]] = _per_layer_spec()


class LayerProbe:
    """Installs the wrappers on a :class:`Tracer` and keeps the counts
    the hooks observe (model history, admission decisions, batches)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: List[str] = []
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self.batches = 0
        self.batched = 0
        self.scores = 0
        self.recomputes = 0
        self.history_rows = 0
        #: id(model) -> [rows ingested, written since last score_many]
        self._models: Dict[int, List[int]] = {}

    # -- install ---------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module_name, class_name, attribute, layer, hook in TARGETS:
            owner = _resolve(module_name, class_name)
            if owner is None or not hasattr(owner, attribute):
                self.missing.append(f"{module_name}.{class_name}.{attribute}")
                continue
            self.tracer.install(
                owner, attribute, layer, getattr(self, hook) if hook else None
            )
        base = _resolve("repro.models", "ReputationModel")
        if base is None:
            self.missing.append("repro.models.ReputationModel")
            return
        hooks = {
            "score_many": ("models.score_many", self._scored),
            "record": ("models.record", self._recorded_one),
            "record_many": ("models.record", self._recorded_many),
        }
        for cls in _subclasses(base):
            for attribute, (layer, hook) in hooks.items():
                raw = cls.__dict__.get(attribute)
                if raw is None or getattr(raw, "__isabstractmethod__", False):
                    continue
                self.tracer.install(cls, attribute, layer, hook)

    # -- hooks -----------------------------------------------------------

    def _outermost(self, layer: str) -> bool:
        """True when the call that just returned was not nested in a
        span of the same layer (a subclass delegating to its base)."""
        return self.tracer.innermost_layer != layer

    def _appended(self, args: Any, kwargs: Any, result: Any) -> None:
        self.counters["store.rows"] += 1

    def _extended(self, args: Any, kwargs: Any, result: Any) -> None:
        values = args[3] if len(args) > 3 else kwargs["values"]
        self.counters["store.rows"] += len(values)

    def _merged(self, args: Any, kwargs: Any, result: Any) -> None:
        other = args[1] if len(args) > 1 else kwargs["other"]
        self.counters["store.rows"] += len(other)

    def _admitted(self, args: Any, kwargs: Any, record: Any) -> None:
        decision = getattr(record, "decision", "")
        key = "ingest.admitted" if decision == "admitted" else f"ingest.{decision}"
        if key in self.counters:
            self.counters[key] += 1

    def _batch(self, args: Any, kwargs: Any, records: Any) -> None:
        self.batches += 1
        self.batched += len(records)

    def _model(self, model: Any) -> List[int]:
        state = self._models.get(id(model))
        if state is None:
            state = self._models[id(model)] = [0, 0]
        return state

    def _recorded_one(self, args: Any, kwargs: Any, result: Any) -> None:
        if self._outermost("models.record"):
            state = self._model(args[0])
            state[0] += 1
            state[1] = 1

    def _recorded_many(self, args: Any, kwargs: Any, result: Any) -> None:
        if self._outermost("models.record"):
            feedbacks = args[1] if len(args) > 1 else kwargs.get("feedbacks", ())
            state = self._model(args[0])
            state[0] += len(feedbacks) if hasattr(feedbacks, "__len__") else 0
            state[1] = 1

    def _scored(self, args: Any, kwargs: Any, result: Any) -> None:
        if self._outermost("models.score_many"):
            state = self._model(args[0])
            self.scores += 1
            self.recomputes += state[1]
            self.history_rows += state[0]
            state[1] = 0

    def forget_models(self) -> None:
        """Drop per-instance history between repetitions."""
        self._models.clear()

    # -- metrics ---------------------------------------------------------

    def metrics(
        self,
        traced_walls: List[float],
        untraced_walls: List[float],
        ops_per_rep: int,
    ) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics over *traced_walls* repetitions."""
        tracer = self.tracer
        reps = len(traced_walls)
        wall_ns = sum(traced_walls) * 1e9
        out: Dict[str, Tuple[float, str]] = {}
        covered = 0.0
        for layer in SHARE_LAYERS:
            share = tracer.self_ns.get(layer, 0) / wall_ns
            covered += share
            out[f"{layer}_share"] = (share, "share")
        out["residual_share"] = (1.0 - covered, "share")
        for name, layer in CALL_LAYERS:
            out[name] = (tracer.calls.get(layer, 0) / reps, "count")
        for name in COUNTERS:
            out[name] = (self.counters[name] / reps, "count")
        out["core.batch_size_mean"] = (
            self.batched / self.batches if self.batches else 0.0, "count"
        )
        out["models.score_recompute_share"] = (
            self.recomputes / self.scores if self.scores else 0.0, "share"
        )
        out["models.history_rows_per_score"] = (
            self.history_rows / self.scores if self.scores else 0.0, "rows"
        )
        # Each traced repetition runs right after an untraced one, so the
        # ratio within a pair is the overhead least disturbed by drift in
        # host speed.
        ratios = [t / u for t, u in zip(traced_walls, untraced_walls)]
        out["trace.wall_s"] = (sum(traced_walls), "s")
        out["trace.us_per_op"] = (
            statistics.median(traced_walls) / ops_per_rep * 1e6, "us"
        )
        out["trace.overhead_share"] = (statistics.median(ratios) - 1.0, "share")
        out["trace.spans_per_rep"] = (tracer.n_spans / reps, "count")
        return out


def _resolve(module_name: str, class_name: str) -> Any:
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        print(f"perfbench: cannot import {module_name}: {exc}", file=sys.stderr)
        return None
    return getattr(module, class_name, None)


def _subclasses(base: type) -> List[type]:
    seen: List[type] = [base]
    index = 0
    while index < len(seen):
        for sub in seen[index].__subclasses__():
            if sub not in seen:
                seen.append(sub)
        index += 1
    return seen
