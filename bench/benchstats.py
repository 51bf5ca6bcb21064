"""Order statistics and the pairing rule the benchmark reports with."""

from __future__ import annotations

import statistics

#: A tail latency needs at least this many tasks beyond it.
TAIL_BEYOND = 10
#: A gain needs the change to win this share of all pairs run ...
WIN_SHARE = 0.9
#: ... over at least this many pairs.
MIN_PAIRS = 10

IMPROVED = "improved"
NO_WORSE = "no worse within the bound"
REGRESSED = "regressed"
UNRESOLVED = "unresolved"


def tail(values) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it.

    With ``n`` sorted samples that is the ``(n - 10)``-th smallest, at
    percentile ``100 * (n - 10) / n``. Fewer than eleven samples leave no
    such percentile; the maximum is returned, at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles``
    gives them; one sample is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list, change: list, pairs: list, better: str, bound: float) -> str:
    """Classify a change against its base for one metric on one workload.

    ``base`` and ``change`` hold every run of each side; ``pairs`` holds
    (base, change) values of runs made with the same seed. ``bound`` is the
    share of the base median by which the metric may worsen.

    * improved: the change wins at least nine tenths of at least ten pairs,
      ties counting for neither, and the medians differ in its favour by
      more than the distance between the base's quartiles;
    * when that distance is wider than ``bound`` times the base median, the
      metric is unresolved, unless every change run is better than every
      base run (no worse) or every one is worse by more than the bound
      (regressed);
    * otherwise regressed when the change median is worse than the base
      median by more than the bound, and no worse within the bound if not.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0

    def gain(new, old) -> float:
        return sign * (new - old)

    q1, base_median, q3 = quartiles(base)
    _, change_median, _ = quartiles(change)
    spread = q3 - q1
    scale = abs(base_median)
    wins = sum(1 for b, c in pairs if gain(c, b) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain(change_median, base_median) > spread):
        return IMPROVED
    worse_by = -gain(change_median, base_median)
    if spread > bound * scale:
        if min(gain(c, b) for c in change for b in base) > 0:
            return NO_WORSE
        if max(gain(c, b) for c in change for b in base) < 0 and worse_by > bound * scale:
            return REGRESSED
        return UNRESOLVED
    return REGRESSED if worse_by > bound * scale else NO_WORSE
