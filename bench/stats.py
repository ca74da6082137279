"""Percentiles for the benchmark's report."""


def percentile(xs, q):
    """q-th percentile (0..100), linear between closest ranks."""
    xs = sorted(xs)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n, candidates=(99, 95, 90, 75, 50)):
    """Highest percentile with at least ten of n samples beyond it, or None."""
    for q in candidates:
        if n * (100 - q) / 100.0 >= 10:
            return q
    return None

