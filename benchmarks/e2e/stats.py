"""Percentiles with the sample-count rule the benchmark reports under."""

from __future__ import annotations

import math
from typing import Sequence

#: A p99 needs at least ten samples beyond it to mean anything.
P99_MIN_SAMPLES = 1000


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p50(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def supports_p99(n: int) -> bool:
    """Whether ``n`` samples can carry a p99 (else it is indicative only)."""
    return n >= P99_MIN_SAMPLES
