"""Host-speed normalisation: probe time is left out and each slice
between two probes is scaled by their mean duration."""

import signal
import time

import pytest

from hostspeed import HostSpeed


def _scripted(probes, reference_ns=100):
    host = HostSpeed(reference_ns=reference_ns)
    for start, end in probes:
        host.starts.append(start)
        host.ends.append(end)
    return host


def test_slices_scale_by_reference_over_probe_time():
    # probes of 100, 100 and 200 ns; slices [100, 1100] and [1100+..]
    host = _scripted([(0, 100), (1100, 1200), (2200, 2400)])
    # first slice ran at reference speed: 1000 ns -> 1000 ns
    assert host.seconds(100, 1100) == pytest.approx(1000e-9)
    # second slice: mean probe 150 ns, so 1000 ns wall count as 666.7 ns
    assert host.seconds(1200, 2200) == pytest.approx(1000e-9 * 100 / 150)


def test_probe_time_is_not_counted():
    host = _scripted([(0, 100), (1100, 1200), (2200, 2300)])
    assert host.seconds(0, 100) == 0.0
    assert host.seconds(1100, 1200) == 0.0
    assert host.seconds(50, 2250) == pytest.approx(2000e-9)


def test_arrays_of_intervals():
    host = _scripted([(0, 100), (1100, 1200)])
    got = host.seconds([100, 600], [600, 1100])
    assert list(got) == pytest.approx([500e-9, 500e-9])


def test_context_probes_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed(period_s=0.005) as host:
        start = time.perf_counter_ns()
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
        end = time.perf_counter_ns()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(host.starts) >= 4
    assert host.seconds(start, end) > 0.0
