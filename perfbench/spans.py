"""In-memory span tracer and reversible timing wrappers.

The traced run measures each layer from the benchmark's own files: a
:class:`Tracer` owns the spans, and :meth:`Tracer.install` replaces a
public function or method of the program with a wrapper that opens a
span on entry and closes it on exit (also when the call raises).
:meth:`Tracer.restore` puts every original attribute back, so an
untraced run sees the program exactly as shipped.

Spans are kept in memory as four int64 columns (layer, parent, start,
end) and written out once, at the end.  Aggregates are kept online:

* a layer's **self time** is the span's duration minus the time its
  child spans cover (children nest strictly, because only synchronous
  calls are wrapped and the benchmark runs one thread);
* a layer's **calls** count only outermost entries, so a wrapped
  method that calls another wrapped method of the same layer (a
  subclass delegating to its base, say) is one call, not two.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer"]

#: hook(args, kwargs, result) run after a wrapped call returns normally
Hook = Callable[[Tuple[Any, ...], Dict[str, Any], Any], None]


class Tracer:
    """Spans, per-layer self time and call counts for one traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.span_layer = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: open frames: [span index, layer id, child ns]
        self._stack: List[List[int]] = []
        #: (owner, attribute, original, owner had it in its own __dict__)
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- spans ---------------------------------------------------------------

    def layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = len(self.layers)
            self.layers.append(layer)
            self._layer_ids[layer] = lid
            self.self_ns[layer] = 0
            self.calls[layer] = 0
        return lid

    def open(self, lid: int) -> List[int]:
        """Open a span of layer *lid* under the innermost open span."""
        stack = self._stack
        index = len(self.span_start)
        if stack:
            parent = stack[-1]
            self.span_parent.append(parent[0])
            outermost = parent[1] != lid
        else:
            self.span_parent.append(-1)
            outermost = True
        if outermost:
            self.calls[self.layers[lid]] += 1
        frame = [index, lid, 0]
        stack.append(frame)
        self.span_layer.append(lid)
        self.span_end.append(0)
        self.span_start.append(self.clock())
        return frame

    def close(self, frame: List[int]) -> None:
        """Close *frame*, which must be the innermost open span."""
        end = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError("spans must close innermost first")
        stack.pop()
        index, lid, child_ns = frame
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.self_ns[self.layers[lid]] += duration - child_ns
        if stack:
            stack[-1][2] += duration

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """``with tracer.span(layer):`` — a span around a block."""
        frame = self.open(self.layer_id(layer))
        try:
            yield
        finally:
            self.close(frame)

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    @property
    def innermost_layer(self) -> Optional[str]:
        """Layer of the innermost open span, if any."""
        return self.layers[self._stack[-1][1]] if self._stack else None

    @property
    def n_spans(self) -> int:
        return len(self.span_start)

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self, layer: str, fn: Callable[..., Any], hook: Optional[Hook] = None
    ) -> Callable[..., Any]:
        """*fn* timed as a span of *layer*; *hook* sees each return value."""
        lid = self.layer_id(layer)
        open_span = self.open
        close_span = self.close

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = open_span(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(frame)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(
        self,
        owner: Any,
        attribute: str,
        layer: str,
        hook: Optional[Hook] = None,
    ) -> None:
        """Replace ``owner.attribute`` (a module function or a class's
        method, static or class method) by its traced wrapper."""
        raw = inspect.getattr_static(owner, attribute)
        own = attribute in getattr(owner, "__dict__", {})
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(self.wrap(layer, raw.__func__, hook))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(layer, raw.__func__, hook))
        elif callable(raw):
            wrapped = self.wrap(layer, raw, hook)
        else:
            raise TypeError(f"{owner!r}.{attribute} is not callable")
        self._patches.append((owner, attribute, raw, own))
        setattr(owner, attribute, wrapped)

    def restore(self) -> None:
        """Undo every :meth:`install`, newest first."""
        while self._patches:
            owner, attribute, raw, own = self._patches.pop()
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- output --------------------------------------------------------------

    def write(self, path: Any) -> None:
        """Write the spans as an ``.npz`` of aligned int64 columns."""
        import numpy as np

        np.savez(
            path,
            layers=np.array(self.layers, dtype=object).astype(str),
            layer=np.frombuffer(self.span_layer, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )

