"""The host-speed sampler behind the scaled host throughputs."""

import signal
from time import perf_counter

from perfbench import measure


def test_host_sampler_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    sampler = measure.HostSampler()
    with sampler.active():
        end = perf_counter() + 3 * measure.SAMPLE_PERIOD_S
        while perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2
    assert sampler.spent >= sum(sampler.samples) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
