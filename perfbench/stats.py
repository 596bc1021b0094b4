"""Pure helpers: percentiles, span self time and open-loop schedules.

Nothing here imports the program under test, so these helpers are
tested on their own (``perfbench/test_helpers.py``).
"""

from __future__ import annotations

import math
import random

#: A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    ``inf`` entries (failed operations) sort last, so a failure counts
    as missing every latency limit.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == math.inf:
        return math.inf if pos > lo or ordered[lo] == math.inf else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_quantile(n: int, cap: float = 99.0, floor: float = 90.0) -> float:
    """The highest percentile (at most ``cap``) with at least
    :data:`TAIL_SAMPLES_BEYOND` of ``n`` samples beyond it, but never
    below ``floor``: with fewer than 100 samples that is p90, beyond
    which fewer than ten samples lie."""
    if n <= 0:
        raise ValueError("no samples")
    q = 100.0 * (1.0 - TAIL_SAMPLES_BEYOND / n)
    return min(cap, max(floor, q))


def tail(values, cap: float = 99.0) -> tuple[float, float]:
    """``(value, q)``: the tail percentile the sample supports."""
    q = tail_quantile(len(values), cap)
    return percentile(values, q), q


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name, ``(total self seconds, call count)``.

    ``spans`` holds ``(span_id, parent_id, name, start, end)`` tuples;
    a span's self time is its duration minus the durations of its
    direct children.  Children of one span run on its thread and nest
    inside it, so their durations never overlap.
    """
    child_total: dict[int, float] = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_total[parent] = child_total.get(parent, 0.0) + (end - start)
    out: dict[str, tuple[float, int]] = {}
    for span_id, _, name, start, end in spans:
        own = (end - start) - child_total.get(span_id, 0.0)
        total, count = out.get(name, (0.0, 0))
        out[name] = (total + own, count + 1)
    return out


def poisson_schedule(rate: float, duration: float, rng: random.Random,
                     start: float = 0.0) -> list[float]:
    """Due times of an open-loop Poisson arrival process: independent
    users at ``rate`` per second over ``[start, start + duration)``."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    due: list[float] = []
    t = start + rng.expovariate(rate)
    end = start + duration
    while t < end:
        due.append(t)
        t += rng.expovariate(rate)
    return due


def backlog_growing(due, done, rate: float, limit_s: float) -> bool:
    """Whether a step of open-loop load left a growing backlog.

    ``due`` and ``done`` are per-operation times (``done`` is ``inf``
    for an operation that never completed).  At the step's last due
    time, the operations due but not yet done must fit in what the
    latency limit allows in flight, ``rate * limit_s`` (at least 10).
    """
    if not due:
        return False
    last_due = max(due)
    outstanding = sum(1 for d, f in zip(due, done) if d <= last_due < f)
    return outstanding > max(10.0, rate * limit_s)


def knee_rate(steps, limit: float) -> float:
    """The highest rate meeting the latency limit, from a rising ladder.

    ``steps`` holds ``(rate, p99, backlog_growing)`` in ladder order,
    ending at the first step that failed (if any).  Between the last
    passing and the first failing step the rate is interpolated where
    log(p99) crosses log(limit), so the estimate does not jump a whole
    ladder step when the knee moves a little.  With no passing step the
    first rate is scaled down by ``limit / p99``.
    """
    if not steps:
        raise ValueError("no ladder steps")
    passed = [s for s in steps if s[1] <= limit and not s[2]]
    failed = [s for s in steps if s[1] > limit or s[2]]
    if not passed:
        rate, p99, _ = failed[0]
        return rate * min(1.0, limit / p99) if p99 > 0 else rate
    rate_ok, p99_ok, _ = passed[-1]
    if not failed:
        return rate_ok
    rate_bad, p99_bad, _ = failed[0]
    if p99_bad <= limit or p99_ok <= 0 or p99_bad == math.inf:
        return rate_ok
    share = (math.log(limit) - math.log(p99_ok)) / (math.log(p99_bad) - math.log(p99_ok))
    return rate_ok + min(1.0, max(0.0, share)) * (rate_bad - rate_ok)


def geometric_ladder(first: float, ratio: float, steps: int) -> list[float]:
    """``steps`` rates rising from ``first`` by ``ratio`` each step."""
    return [first * ratio ** i for i in range(steps)]


def spread(values) -> float:
    """Inter-quartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def quartiles(values) -> tuple[float, float, float]:
    """Quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
