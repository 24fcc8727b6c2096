"""Statistics the benchmark reports with: percentiles, the chunk-minimum
CPU estimator, run-to-run spread, and the compare verdicts.

The benchmark owns these instead of importing the program's own
percentile, so a change to the program can never change how the
program is measured.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile at fractional rank p/100*(n-1).

    The same definition as ``statistics.quantiles(..., method="inclusive")``:
    p50 of ``[1, 2, 3, 4]`` is 2.5, p90 is 3.7.
    """
    return weighted_percentile([(v, 1) for v in values], p)


def weighted_percentile(pairs: Sequence[Tuple[float, int]], p: float) -> float:
    """:func:`percentile` of the list in which each value repeats ``weight`` times.

    A chunk that processed ``u`` units at ``t/u`` CPU-seconds each
    contributes ``u`` equal samples, without materialising them.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted((v, w) for v, w in pairs if w > 0)
    total = sum(w for _, w in ordered)
    if total == 0:
        raise ValueError("percentile of an empty sample")
    rank = p / 100.0 * (total - 1)
    low = int(rank)
    weight = rank - low
    return _at_rank(ordered, low) * (1.0 - weight) + _at_rank(
        ordered, min(low + 1, total - 1)
    ) * weight


def _at_rank(ordered: Sequence[Tuple[float, int]], rank: int) -> float:
    seen = 0
    for value, weight in ordered:
        seen += weight
        if rank < seen:
            return float(value)
    raise IndexError(rank)  # pragma: no cover - rank < total by construction


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def chunk_minima(table: Sequence[Sequence[float]]) -> List[float]:
    """Per-chunk minimum over repeats; ``table[r][i]`` is chunk i of repeat r.

    The work of a chunk is deterministic, so host noise can only add to
    its CPU time: on a shared host the same chunk runs up to twice as
    long while a neighbour loads the core or the cache, in spells of
    seconds.  Spells hit different chunks in different repeats, so each
    chunk's minimum over repeats is its cost on a quiet host, and the
    sum of the minima is steadier than any whole-run time or any median
    (the minimum is the robust estimator for timings whose noise is
    strictly additive; Chen and Revels, "Robust benchmarking in noisy
    environments", 2016).
    """
    widths = {len(row) for row in table}
    if len(widths) != 1:
        raise ValueError(f"repeats ran different chunk counts: {sorted(widths)}")
    return [min(column) for column in zip(*table)]


def verdict(
    base_samples: Sequence[float],
    new_samples: Sequence[float],
    base_value: float,
    new_value: float,
    better: str,
    bound: float,
) -> Tuple[str, float]:
    """Classify ``new`` against ``base``: better, worse, unchanged or unresolved.

    The samples are draws of each side's estimate (``resampled`` in a
    result document).  Returns the verdict and the relative change,
    signed so that a positive change is an improvement.  When either
    side's spread exceeds ``bound`` the difference cannot be resolved,
    unless every new sample reads better than every base sample.
    Otherwise a change counts, either way, only beyond ``bound``: the
    host drifts between two runs by more than either run's own spread,
    so a smaller difference between two documents is not evidence.
    """
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (new_value - base_value) / base_value
    if max(spread(base_samples), spread(new_samples)) > bound:
        dominates = all(sign * (n - b) > 0 for n in new_samples for b in base_samples)
        return ("better" if dominates else "unresolved"), change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "unchanged", change
