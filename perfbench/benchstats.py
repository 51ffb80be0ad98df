"""The benchmark's arithmetic: percentiles, quartiles, the unspanned
remainder and the compare verdict.  Pure functions, tested by
test_benchstats.py."""

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(values, pct):
    """The nearest-rank percentile: the smallest sample with at least
    pct % of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, pct):
    """How many of n samples lie strictly above the nearest-rank pct."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(n, min_beyond=10):
    """The highest candidate percentile with at least min_beyond of n
    samples beyond it, or None when even the median has fewer."""
    for pct in TAIL_CANDIDATES:
        if beyond(n, pct) >= min_beyond:
            return pct
    return None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (0 for a single value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def unspanned(period, parts):
    """The part of a period that no child span covers."""
    return period - sum(parts)


def worse_share(parent, change, better):
    """How much worse change is than parent, as a share of parent
    (negative when change is better)."""
    delta = (change - parent) / abs(parent) if parent else 0.0
    return delta if better == "lower" else -delta


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def win_share(parent_runs, change_runs, better):
    """Share of alternating (parent, change) pairs the change wins; ties
    count for neither side."""
    pairs = list(zip(parent_runs, change_runs))
    if not pairs:
        return 0.0
    wins = sum(1 for p, c in pairs if is_better(c, p, better))
    return wins / len(pairs)


def verdict(parent_runs, change_runs, better, bound):
    """improved / unchanged / regressed / unresolved for one metric.

    Unresolved when either side's spread exceeds the bound, unless every
    change run beats every parent run.  Regressed when the change median
    is worse by more than the bound.  Improved only when the change wins
    at least 9 in 10 pairs and the medians differ by more than the
    parent's own quartile distance."""
    pm = statistics.median(parent_runs)
    cm = statistics.median(change_runs)
    if better == "lower":
        all_better = max(change_runs) < min(parent_runs)
    else:
        all_better = min(change_runs) > max(parent_runs)
    noisy = max(spread(parent_runs), spread(change_runs)) > bound
    if noisy and not all_better:
        return "unresolved"
    if worse_share(pm, cm, better) > bound:
        return "regressed"
    q1, _, q3 = quartiles(parent_runs)
    if is_better(cm, pm, better) and (
        all_better
        or (win_share(parent_runs, change_runs, better) >= 0.9
            and abs(cm - pm) > q3 - q1)
    ):
        return "improved"
    return "unchanged"
