"""Order statistics and span arithmetic for the benchmark.

Pure functions of plain Python values: nothing here imports the program
under test or numpy, so the rules can be checked on hand-made inputs
(see ``test_perfbench.py``).
"""

from __future__ import annotations

import math
import statistics

MIN_TAIL = 10       # samples that must lie beyond a reported percentile
# yardstick burst time (calibration.py) at the reference speed: the speed of
# the 2-core Intel Xeon VM (2.0 GHz) the benchmark was defined on, rounded
REFERENCE_MS = 4.0
WINDOW = 3          # bursts on each side of a step that set its scale


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of all
    samples at or below it.  Always one of the samples, never interpolated."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th percentile's rank."""
    return n - math.ceil(p / 100.0 * n)


def tail_percentile(values, p: float, min_tail: int = MIN_TAIL) -> float:
    """The p-th percentile, refused unless at least min_tail samples lie beyond it."""
    beyond = samples_beyond(len(values), p)
    if beyond < min_tail:
        raise ValueError(f"p{p:g} of {len(values)} samples has only {beyond} beyond it "
                         f"(need {min_tail})")
    return percentile(values, p)


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median,
    with the quartiles of ``statistics.quantiles(values, n=4)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of it that its
    direct children cover.

    ``spans`` is a sequence of (start, end, parent) with parent the index of
    the enclosing span or -1.  Over one root's subtree the self times add up
    to the root's duration.
    """
    children = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        kids = [(spans[c][0], spans[c][1]) for c in children[i]]
        out.append((end - start) - covered_length(kids, start, end))
    return out


def scale_factors(bursts) -> list[float]:
    """Scale for the step between yardstick burst k and burst k+1:
    REFERENCE_MS over the median of bursts k - WINDOW to k + 1 + WINDOW."""
    return [REFERENCE_MS / statistics.median(bursts[max(0, k - WINDOW):k + 2 + WINDOW])
            for k in range(len(bursts) - 1)]
