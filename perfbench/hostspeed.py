"""Host-speed normalisation of measured intervals.

The host this benchmark was built on is two vCPUs of a shared machine.
Their speed switches, on a scale of a tenth of a second, between a
fast state and one about 1.5-2x slower, and the share of time spent in
each drifts over minutes with the load of other tenants.  A wall-clock
median then measures the neighbours as much as the program.

:class:`HostSpeed` interleaves a fixed, program-independent
calibration probe with the workload: a ``SIGALRM`` interval timer runs
it every :data:`PERIOD_S` seconds, between two bytecodes of whatever
the workload is doing.  Each probe's duration tells how fast the host
was just then.  :meth:`HostSpeed.seconds` turns an interval of the run
into *reference seconds*: the wall time of every slice between two
probes, scaled by ``REFERENCE_NS / probe duration`` (the mean of the
two probes around the slice), with the probes' own time left out.  On
a host whose probe takes :data:`REFERENCE_NS` that is plain wall time;
on a slower or busier one, each slice counts as if it had run at the
reference speed.
"""

from __future__ import annotations

import signal
import time
from typing import Any, List, Optional

import numpy as np

#: seconds between two probes (the probe itself takes ~0.15-0.3 ms)
PERIOD_S = 0.02
#: probe duration, in nanoseconds, that counts as reference speed: about
#: the probe's duration in the fast state of the 2-vCPU host above
REFERENCE_NS = 130_000


def _calibration() -> float:
    """A fixed amount of interpreter work: dict and float arithmetic,
    string formatting and a few small numpy calls."""
    acc: dict = {}
    total = 0.0
    for i in range(600):
        key = i & 63
        acc[key] = acc.get(key, 0.0) + i * 0.5
        if i % 7 == 0:
            total += len(f"s{i}")
    values = np.arange(32, dtype=float)
    for _ in range(12):
        total += float(np.dot(values, values))
    return total + sum(acc.values())


class HostSpeed:
    """Runs the calibration probe alongside the workload (use as a
    context manager around it) and converts ``perf_counter_ns``
    intervals inside that span to reference seconds."""

    def __init__(self, period_s: float = PERIOD_S, reference_ns: int = REFERENCE_NS) -> None:
        self.period_s = period_s
        self.reference_ns = reference_ns
        self.starts: List[int] = []
        self.ends: List[int] = []
        self._previous: Any = None
        self._origin = 0
        self._knots: Optional[np.ndarray] = None
        self._cumulative: Optional[np.ndarray] = None

    def probe(self) -> None:
        start = time.perf_counter_ns()
        _calibration()
        end = time.perf_counter_ns()
        self.starts.append(start)
        self.ends.append(end)
        self._knots = None

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self.probe()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def probe_ns(self) -> np.ndarray:
        return np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)

    def _build(self) -> None:
        if len(self.starts) < 2:
            raise ValueError("host speed needs at least two probes")
        self._origin = self.starts[0]
        starts = np.asarray(self.starts, dtype=np.int64) - self._origin
        ends = np.asarray(self.ends, dtype=np.int64) - self._origin
        durations = (ends - starts).astype(float)
        factor = self.reference_ns / ((durations[:-1] + durations[1:]) / 2.0)
        gaps = (starts[1:] - ends[:-1]).astype(float)
        # Reference time elapsed at each probe's start and end: it grows
        # by gap x factor between probes and not at all during one.
        knots = np.empty(2 * len(starts), dtype=float)
        knots[0::2] = starts
        knots[1::2] = ends
        cumulative = np.zeros_like(knots)
        cumulative[2::2] = np.cumsum(gaps * factor)
        cumulative[3::2] = cumulative[2::2]
        self._knots = knots
        self._cumulative = cumulative

    def seconds(self, start_ns: Any, end_ns: Any) -> Any:
        """Reference seconds between *start_ns* and *end_ns* (scalars or
        arrays of ``perf_counter_ns`` readings inside the probed span)."""
        if self._knots is None:
            self._build()
        assert self._knots is not None and self._cumulative is not None
        knots, cumulative = self._knots, self._cumulative
        lo = np.interp(np.asarray(start_ns, dtype=np.int64) - self._origin, knots, cumulative)
        hi = np.interp(np.asarray(end_ns, dtype=np.int64) - self._origin, knots, cumulative)
        return (hi - lo) / 1e9


def wall_seconds(start_ns: Any, end_ns: Any) -> Any:
    """Plain wall seconds, the measure of the traced run."""
    return (np.asarray(end_ns, dtype=np.int64) - np.asarray(start_ns, dtype=np.int64)) / 1e9
