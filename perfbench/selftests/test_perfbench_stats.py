"""Percentiles: a tail is reported only with ten samples beyond it."""

import pytest

from fleetbench.stats import beyond, latency_ms, tail_allowed


@pytest.mark.parametrize(
    "n, q, allowed",
    [
        (199, 95, False),
        (200, 95, True),
        (999, 99, False),
        (1000, 99, True),
        (99, 90, False),
        (100, 90, True),
        (1, 50, True),
    ],
)
def test_tail_needs_ten_samples_beyond(n, q, allowed):
    assert tail_allowed(n, q) is allowed
    if q != 50:
        assert (beyond(n, q) >= 10) is allowed


def test_latency_withheld_below_the_sample_floor():
    samples = [i / 1000.0 for i in range(1, 200)]  # 199 samples
    assert latency_ms(samples, 95) is None
    assert latency_ms(samples + [0.2], 95) == pytest.approx(190.05)
    assert latency_ms(samples, 50) == pytest.approx(100.0)
    assert latency_ms([], 50) is None

