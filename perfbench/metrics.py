"""Pure statistics over cell timings, result trees and spans.

Nothing here imports sparkbench or touches the file system, so the
rules can be tested on hand-made inputs.
"""

import math
import statistics

TAIL_BEYOND = 10


def tail(values, beyond=TAIL_BEYOND):
    """Highest percentile of ``values`` with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``. The value is the order statistic
    with exactly ``beyond`` larger samples; its percentile is its rank
    as a share of the others. With fewer than ``2 * beyond + 1`` samples
    that statistic would sit below the median, which is no tail, so the
    maximum (percentile 100) is returned and the caller prints the
    sample count next to it.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= 2 * beyond:
        return xs[-1], 100.0, n
    k = n - 1 - beyond
    return xs[k], 100.0 * k / (n - 1), n


def failed_frac(failed, attempted):
    if attempted <= 0:
        raise ValueError("nothing attempted")
    return failed / attempted


def aa_log_spread(base, other):
    """Median of |ln(other/base)| over the cells both configurations measured.

    ``base`` and ``other`` map a cell key to seconds. When the two
    configurations cannot differ (``-O`` against no flags on kernels
    without asserts) this is the A/A noise floor of a reported speedup.
    """
    keys = sorted(set(base) & set(other))
    if not keys:
        raise ValueError("no cell measured under both configurations")
    return statistics.median(abs(math.log(other[k] / base[k])) for k in keys)


def cv(runs):
    """Coefficient of variation of one cell's measured runs."""
    mean = statistics.fmean(runs)
    return statistics.stdev(runs) / mean if len(runs) > 1 and mean > 0 else 0.0


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans):
    """Map span id to its duration minus the part its children cover.

    A span is a dict with ``id``, ``start``, ``end`` and ``parent``.
    Children are clipped to the parent's interval, so a child process
    that outlives the parent's clock read counts only up to it.
    """
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        inside = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                  for c in kids.get(s["id"], [])]
        inside = [(a, b) for a, b in inside if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - covered(inside)
    return out


def quartile_spread(values):
    """(q3 - q1) / median, the run-to-run spread the bounds are set against."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
