"""Percentiles, the tail rule, and run-to-run spread."""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: Percentiles a tail may be reported at. The tail of a latency is the
#: highest of these with at least ``MIN_BEYOND`` samples above it that
#: is clear of the latency's known slow modes (:func:`clear_of`).
TAIL_CANDIDATES = (75.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)

#: Samples that must lie beyond a reported tail percentile. Five times
#: the usual ten: on a shared host a few samples per run catch another
#: tenant's burst, and a tail read from its ten slowest samples moved
#: by half from run to run, from its twenty slowest by a fifth between
#: two sets of ten runs.
MIN_BEYOND = 50


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    frac = position - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * frac)


def tail_percentile(
    count: int, candidates: Iterable[float] = TAIL_CANDIDATES
) -> float:
    """Highest candidate percentile with ``MIN_BEYOND`` samples above."""
    best = None
    for q in candidates:
        if round(count * (100.0 - q) / 100.0, 6) >= MIN_BEYOND:
            best = q if best is None else max(best, q)
    if best is None:
        raise ValueError(
            f"{count} samples are too few for any tail percentile"
        )
    return best


def clear_of(slow_share: float) -> Tuple[float, ...]:
    """Tail candidates that stay clear of known slow modes.

    A latency whose slowest ``slow_share`` of samples form separate
    modes (for a submit, the one in z that runs the full
    truth-inference rerun) is multimodal, and a percentile near the
    boundary between modes reads either mode from run to run. Keeping
    only percentiles with at least twice that share beyond them puts
    the tail in the fast mode, clear of the boundary. ``slow_share`` 0
    keeps them all.
    """
    return tuple(
        q for q in TAIL_CANDIDATES
        if (100.0 - q) / 100.0 >= 2.0 * slow_share - 1e-12
    )


def latency_summary(
    samples_ms: Sequence[float], slow_share: float = 0.0
) -> Dict[str, float]:
    """``{"p50", "tail", "tail_q", "count"}`` of a latency sample whose
    slowest ``slow_share`` is a separate mode (see :func:`clear_of`)."""
    q = tail_percentile(len(samples_ms), clear_of(slow_share))
    return {
        "p50": percentile(samples_ms, 50.0),
        "tail": percentile(samples_ms, q),
        "tail_q": q,
        "count": len(samples_ms),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def median(values: List[float]) -> float:
    return float(statistics.median(values))
