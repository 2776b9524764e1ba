#!/usr/bin/env python3
"""Outside-in benchmark for world runs, the trial harness and the
selection service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload world.sharded --seed 1 \\
        --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory; nothing
is installed or built.  Each run first checks the workload's outputs
(a failed check exits non-zero and prints no numbers), then repeats
the workload until ``--seconds`` of measurement have passed, checking
every repetition's canonical identity against the first.

``--trace 0`` prints the end-to-end metrics.  Its timings are in
reference seconds: a calibration probe interleaved with the workload
measures the shared host's speed as it changes, and each interval is
scaled to the probe's reference speed (see ``hostspeed.py``).
``--trace 1`` alternates
untraced and traced repetitions, wrapping the program's public entry
points (see ``layers.py``) only for the traced ones, and prints the
per-layer metrics; the spans are written to
``perfbench/out/<workload>.seed<seed>.spans.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress and
sample counts go to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and insist that
    ``repro`` really comes from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {exc}")
    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: repro was imported from {origin}, not {src}")


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return float(ordered[index])


def _repeat(workload: Any, seconds: float, step: Any) -> List[Any]:
    """Call *step* until *seconds* have passed (at least MIN_REPS times)."""
    reps: List[Any] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(step())
    return reps


def _same_identity(reps: List[Any]) -> None:
    from workloads import require

    first = reps[0].identity
    for rep in reps[1:]:
        require(rep.identity == first, "a repetition's canonical output changed")


def end_to_end(workload: Any, seconds: float) -> Tuple[Dict[str, Any], List[Any]]:
    from hostspeed import HostSpeed

    with HostSpeed() as host:
        reps = _repeat(workload, seconds, workload.rep)
    _same_identity(reps)
    metrics = summarise(reps, host.seconds)
    per_rep = len(reps[0].requests)
    beyond = per_rep - 1 - int(round(0.99 * (per_rep - 1)))
    probe_us = host.probe_ns() / 1e3
    print(
        f"perfbench: {workload.name}: {len(reps)} reps, "
        f"{sum(len(rep.samples) for rep in reps)} timed samples, {per_rep} "
        f"requests per rep ({beyond} beyond p99), {reps[0].rows} rows/rep; "
        f"{len(probe_us)} host probes, p10/p50/p90 "
        f"{_percentile(probe_us, 0.1):.0f}/{_percentile(probe_us, 0.5):.0f}/"
        f"{_percentile(probe_us, 0.9):.0f} us",
        file=sys.stderr,
    )
    return metrics, reps


def summarise(reps: List[Any], seconds: Callable[[Any, Any], Any]) -> Dict[str, Any]:
    """The end-to-end metrics of *reps*, with *seconds* turning a
    ``(start_ns, end_ns)`` interval into seconds."""

    def total(intervals: List[Tuple[int, int]]) -> float:
        return float(sum(seconds(start, end) for start, end in intervals))

    work = []
    for rep in reps:
        for start, end, rows in rep.samples:
            inside = [(s, e) for s, e in rep.setup if start <= s and e <= end]
            work.append((total([(start, end)]) - total(inside)) / rows * 1e6)
    attempted = sum(rep.attempted for rep in reps)
    ok = sum(rep.ok for rep in reps)
    return {
        "setup_s": (statistics.median(total(rep.setup) for rep in reps), "s"),
        "us_per_row": (statistics.median(work), "us"),
        "req_p50_ms": (_request_quantile(reps, seconds, 0.50), "ms"),
        "req_p99_ms": (_request_quantile(reps, seconds, 0.99), "ms"),
        "ok_share": (ok / attempted, "share"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _request_quantile(reps: List[Any], seconds: Any, q: float) -> float:
    """The *q* request-latency quantile of each repetition, summarised by
    its median across repetitions (milliseconds)."""
    per_rep = []
    for rep in reps:
        starts, ends = zip(*rep.requests)
        per_rep.append(_percentile(list(seconds(starts, ends)), q))
    return statistics.median(per_rep) * 1e3


def traced(workload: Any, clock: Any, seconds: float, seed: int) -> Tuple[Dict[str, Any], List[Any]]:
    from layers import LayerProbe
    from spans import Tracer

    tracer = Tracer()
    probe = LayerProbe(tracer)
    untraced_walls: List[float] = []
    traced_walls: List[float] = []

    def pair() -> List[Any]:
        plain = workload.rep()
        untraced_walls.append(plain.wall_s)
        probe.install()
        clock.tracer = tracer
        try:
            rep = workload.rep()
        finally:
            tracer.restore()
            clock.tracer = None
            probe.forget_models()
        traced_walls.append(rep.wall_s)
        return [plain, rep]

    pairs = _repeat(workload, seconds, pair)
    reps = [rep for pair_reps in pairs for rep in pair_reps]
    _same_identity(reps)
    if tracer.installed or tracer.open_spans:
        raise SystemExit("perfbench: tracer left wrappers installed or spans open")
    if probe.missing:
        print(f"perfbench: trace targets not found: {probe.missing}", file=sys.stderr)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"{workload.name}.seed{seed}.spans.npz")
    metrics = probe.metrics(traced_walls, untraced_walls, reps[0].ops)
    residual = metrics["residual_share"][0]
    if residual < -1e-9:
        raise SystemExit(f"perfbench: span self times exceed the traced wall ({residual})")
    print(
        f"perfbench: {workload.name}: {len(traced_walls)} traced reps, "
        f"{tracer.n_spans} spans, overhead {metrics['trace.overhead_share'][0]:.3f}, "
        f"residual {residual:.3f}",
        file=sys.stderr,
    )
    return metrics, reps


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS, CheckFailed, SetupClock

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    clock = SetupClock()
    try:
        workload = WORKLOADS[args.workload](args.seed, clock)
        workload.check()
        if args.trace:
            metrics, reps = traced(workload, clock, args.seconds, args.seed)
        else:
            metrics, reps = end_to_end(workload, args.seconds)
    except CheckFailed as exc:
        print(f"perfbench: {args.workload}: check failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(rep.attempted for rep in reps)
    failed = attempted - sum(rep.ok for rep in reps)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
