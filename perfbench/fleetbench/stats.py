"""Latency percentiles, reported only where the sample supports them.

A tail percentile is only meaningful when enough samples lie beyond
it: the benchmark reports percentile ``q`` of ``n`` samples only when
at least :data:`MIN_BEYOND` of them sit above it, and always prints
the sample count next to it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

#: Samples that must lie beyond a tail percentile before it is reported.
MIN_BEYOND = 10


def beyond(n: int, q: int) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n * (100 - q) // 100


def tail_allowed(n: int, q: int) -> bool:
    """May percentile ``q`` be reported from ``n`` samples?"""
    return q == 50 or beyond(n, q) >= MIN_BEYOND


def latency_ms(samples_s: Sequence[float], q: int) -> Optional[float]:
    """Percentile ``q`` of a sample of seconds, in ms; ``None`` when the
    sample is empty or too small for that tail."""
    if not samples_s or not tail_allowed(len(samples_s), q):
        return None
    return float(np.percentile(samples_s, q)) * 1000.0
