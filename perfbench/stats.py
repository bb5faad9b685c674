"""Order statistics for latency samples and span self times, on plain sequences."""

from __future__ import annotations

# A tail percentile must leave at least this many samples above it.
TAIL_MIN_ABOVE = 10


def tail_percentile(samples, min_above: int = TAIL_MIN_ABOVE) -> tuple[float, float]:
    """Highest percentile that still has ``min_above`` samples above it.

    Returns ``(percentile, value)``. The value is the sample with exactly
    ``min_above`` samples ranked above it; the percentile is its rank
    under linear interpolation (NumPy's default), 100 * rank / (n - 1).
    Fewer than ``min_above + 1`` samples leave no such percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < min_above + 1:
        raise ValueError(f"need at least {min_above + 1} samples for a tail, got {n}")
    rank = n - 1 - min_above
    percentile = 100.0 * rank / (n - 1) if n > 1 else 100.0
    return percentile, ordered[rank]


def self_times(starts, ends, parents) -> list[float]:
    """Self time of every span: its duration minus the time its children cover.

    ``parents[k]`` is the index of span k's parent, or -1 for a root. A
    child's interval is clipped to its parent's, and overlapping children
    are merged, so each instant of the parent is subtracted at most once.
    """
    children: dict[int, list[int]] = {}
    for k, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(k)
    result = []
    for k, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(k, ()), key=lambda c: starts[c]):
            lo = max(starts[child], cursor)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result
