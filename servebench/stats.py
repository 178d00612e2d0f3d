"""Percentile and ratio math for servebench."""

import math


def percentile(values, q):
    """The q-quantile (0 <= q <= 1) by linear interpolation between the
    closest ranks of the sorted sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n samples rank strictly above the q-quantile's rank."""
    # Rounded first so 0.99 * 1000 (990.0000000000001) ranks as 990.
    return n - math.ceil(round(q * n, 9))


def min_samples_for(q, beyond=10):
    """Smallest sample size leaving at least `beyond` samples past q."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def tail_percentile(values, q, beyond=10):
    """The q-quantile, refusing samples too small to support it: at least
    `beyond` samples must lie past it."""
    if samples_beyond(len(values), q) < beyond:
        raise ValueError(
            f"{len(values)} samples leave fewer than {beyond} beyond "
            f"p{q * 100:g}; need {min_samples_for(q, beyond)}")
    return percentile(values, q)


def ratio(num, den):
    """num / den, 0 when the base is 0."""
    return num / den if den else 0.0

