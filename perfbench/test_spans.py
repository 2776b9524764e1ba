"""Span accounting of the benchmark's tracer and layer probe."""

import inspect
import types

import pytest

from layers import LayerProbe, SHARE_LAYERS
from spans import Tracer


class _Clock:
    """A clock that returns scripted readings, one per call."""

    def __init__(self, readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


class _Base:
    def inherited(self):
        return "base"


class _Target(_Base):
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    def boom(self):
        raise ValueError("boom")

    def again(self, depth):
        return self.again(depth - 1) if depth else 0

    @staticmethod
    def static(x):
        return x * 2

    @classmethod
    def klass(cls, x):
        return (cls.__name__, x)


def test_self_time_excludes_children():
    # outer opens at 0, inner spans [10, 30], outer closes at 100.
    tracer = Tracer(clock=_Clock([0, 10, 30, 100]))
    tracer.install(_Target, "outer", "outer")
    tracer.install(_Target, "inner", "inner")
    try:
        assert _Target().outer() == 2
    finally:
        tracer.restore()
    assert tracer.self_ns == {"outer": 80, "inner": 20}
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert list(tracer.span_parent) == [-1, 0]
    assert list(tracer.span_start) == [0, 10]
    assert list(tracer.span_end) == [100, 30]


def test_sibling_children_all_subtracted():
    tracer = Tracer(clock=_Clock([0, 1, 4, 5, 9, 20]))
    with tracer.span("parent"):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            pass
    assert tracer.self_ns == {"parent": 20 - 3 - 4, "child": 7}
    assert tracer.calls["child"] == 2


def test_block_span_closes_when_the_block_raises():
    tracer = Tracer(clock=_Clock([0, 3]))
    with pytest.raises(KeyError):
        with tracer.span("block"):
            raise KeyError("x")
    assert tracer.open_spans == 0
    assert tracer.self_ns["block"] == 3


def test_raising_call_still_closes_its_span():
    tracer = Tracer(clock=_Clock([5, 12]))
    tracer.install(_Target, "boom", "boom")
    try:
        with pytest.raises(ValueError, match="boom"):
            _Target().boom()
    finally:
        tracer.restore()
    assert tracer.open_spans == 0
    assert list(tracer.span_end) == [12]
    assert tracer.self_ns["boom"] == 7


def test_raising_child_is_charged_and_parent_continues():
    tracer = Tracer(clock=_Clock([0, 2, 6, 10]))

    def parent():
        with pytest.raises(ValueError):
            _Target().boom()
        return "done"

    holder = types.SimpleNamespace(parent=parent)
    tracer.install(_Target, "boom", "boom")
    tracer.install(holder, "parent", "parent")
    try:
        assert holder.parent() == "done"
    finally:
        tracer.restore()
    assert tracer.self_ns == {"boom": 4, "parent": 6}


def test_nested_same_layer_counts_one_call():
    tracer = Tracer()
    tracer.install(_Target, "again", "again")
    try:
        assert _Target().again(3) == 0
    finally:
        tracer.restore()
    assert tracer.calls["again"] == 1
    assert tracer.n_spans == 4


def test_wrappers_are_fully_restored():
    originals = {
        name: inspect.getattr_static(_Target, name)
        for name in ("outer", "static", "klass")
    }
    module = types.ModuleType("fake_module")
    module.fn = lambda: "fn"
    original_fn = module.fn
    tracer = Tracer()
    tracer.install(_Target, "outer", "a")
    tracer.install(_Target, "static", "b")
    tracer.install(_Target, "klass", "c")
    tracer.install(_Target, "inherited", "d")
    tracer.install(module, "fn", "e")
    assert _Target.static(2) == 4
    assert _Target.klass(1) == ("_Target", 1)
    assert _Target().inherited() == "base"
    assert module.fn() == "fn"
    assert tracer.calls == {"a": 0, "b": 1, "c": 1, "d": 1, "e": 1}
    tracer.restore()
    assert tracer.installed == 0
    for name, raw in originals.items():
        assert inspect.getattr_static(_Target, name) is raw
    assert "inherited" not in _Target.__dict__
    assert _Target.inherited is _Base.__dict__["inherited"]
    assert module.fn is original_fn


def test_span_closing_out_of_order_is_rejected():
    tracer = Tracer()
    first = tracer.open(tracer.layer_id("a"))
    tracer.open(tracer.layer_id("b"))
    with pytest.raises(RuntimeError):
        tracer.close(first)


def _class_attributes():
    import repro.models  # noqa: F401  (registers every model subclass)
    from layers import TARGETS, _resolve, _subclasses

    owners = {_resolve(module, cls) for module, cls, *_ in TARGETS}
    owners.update(_subclasses(repro.models.ReputationModel))
    owners.discard(None)
    return {owner: dict(vars(owner)) for owner in owners}


def test_layer_probe_restores_every_program_attribute():
    before = _class_attributes()
    tracer = Tracer()
    probe = LayerProbe(tracer)
    probe.install()
    assert tracer.installed > 20
    assert probe.missing == []
    tracer.restore()
    after = _class_attributes()
    assert before.keys() == after.keys()
    for owner, attributes in before.items():
        assert after[owner] == attributes, owner


def test_layer_shares_and_residual_add_up_to_the_traced_wall():
    from repro.models.beta import BetaReputation
    from repro.common.records import Feedback

    tracer = Tracer()
    probe = LayerProbe(tracer)
    probe.install()
    try:
        model = BetaReputation()
        model.record(Feedback(rater="a", target="s", time=0.0, rating=1.0))
        model.score_many(["s"])
        model.score_many(["s"])
        model.record_many([Feedback(rater="b", target="s", time=1.0, rating=0.0)])
        model.score_many(["s"])
    finally:
        tracer.restore()
    total = sum(tracer.self_ns.values())
    metrics = probe.metrics([total / 1e9 * 2], [total / 1e9], ops_per_rep=3)
    shares = [metrics[f"{layer}_share"][0] for layer in SHARE_LAYERS]
    assert sum(shares) + metrics["residual_share"][0] == pytest.approx(1.0)
    assert metrics["residual_share"][0] == pytest.approx(0.5)
    assert metrics["models.score_many_calls"][0] == 3
    assert metrics["models.score_recompute_share"][0] == pytest.approx(2 / 3)
    assert metrics["models.history_rows_per_score"][0] == pytest.approx(4 / 3)
    assert metrics["store.rows"][0] == 2
    assert metrics["trace.overhead_share"][0] == pytest.approx(1.0)
