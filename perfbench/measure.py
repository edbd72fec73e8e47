"""Pure measurement arithmetic: percentiles, the SLO ladder, span self time.

Nothing here touches the program under test, so every rule the
benchmark reports by is unit-tested on synthetic inputs
(``perfbench/tests``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it; fewer and the figure is one or two outliers.
MIN_BEYOND = 10

#: Latency limit of the serving SLO, on the p99 of one ladder rung.
SLO_P99_MS = 50.0

#: A rung whose completions fall below this share of its offered rate
#: has a growing backlog, whatever its latency says.
SLO_MIN_ACHIEVED = 0.95

#: A rung whose sender ran this late (p99 lag against the schedule)
#: measured the load generator, not the program.
GENERATOR_LAG_MS = 0.2 * SLO_P99_MS

#: Tail percentiles tried by :func:`highest_tail`, highest first.
TAIL_LEVELS = (99.0, 95.0, 90.0)


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) by linear interpolation."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the ``p``-th percentile."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def tail(samples: Sequence[float], p: float = 99.0) -> float:
    """The ``p``-th percentile, refusing a sample too small to carry it.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    beyond the percentile (1,000 samples for p99).
    """
    if beyond(len(samples), p) < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} needs {MIN_BEYOND} samples beyond it; "
            f"{len(samples)} samples leave {beyond(len(samples), p)}"
        )
    return percentile(samples, p)


def min_samples(p: float = 99.0) -> int:
    """Smallest sample count for which :func:`tail` accepts ``p``."""
    n = 1
    while beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def highest_tail(samples: Sequence[float]):
    """``(level, value)`` of the highest percentile a sample can carry.

    The first of :data:`TAIL_LEVELS` with at least :data:`MIN_BEYOND` samples
    beyond it; ``None`` when none qualifies.
    """
    for level in TAIL_LEVELS:
        if beyond(len(samples), level) >= MIN_BEYOND:
            return level, percentile(samples, level)
    return None


@dataclass
class Rung:
    """One offered rate of the open-loop ladder and what it achieved."""

    offered: float
    #: Rate the drawn Poisson schedule actually offered (count / span).
    scheduled: float
    achieved: float
    p99_ms: float
    attempted: int
    failed: int
    #: p99 of how late the sender ran against the schedule.
    lag_p99_ms: float

    def meets_slo(self) -> bool:
        """p99 within the limit, nothing failed, no growing backlog."""
        return (
            self.failed == 0
            and self.attempted > 0
            and self.p99_ms <= SLO_P99_MS
            and self.achieved >= SLO_MIN_ACHIEVED * self.scheduled
        )

    def generator_bound(self) -> bool:
        """The sender fell behind its schedule: the rung judged the generator."""
        return self.lag_p99_ms > GENERATOR_LAG_MS


def ladder_end(rungs: Iterable[Rung]) -> str:
    """Why an ascending ladder's climb stopped.

    ``"generator"`` at a rung whose sender fell behind (its result, pass
    or miss, says nothing about the program), ``"slo"`` at the first rung
    that missed the SLO, ``"top"`` when every rung passed.
    """
    for rung in rungs:
        if rung.generator_bound():
            return "generator"
        if not rung.meets_slo():
            return "slo"
    return "top"


def max_qps(rungs: Iterable[Rung]) -> float:
    """Throughput at the highest rung of an ascending ladder meeting the SLO.

    The ladder is climbed in order and the climb stops at the first rung
    that misses or is :meth:`Rung.generator_bound`: a rate above a failed
    one is not sustainable even if a lucky rung passes, and a rung the
    generator could not offer on time is neither a pass nor a miss of
    the program.  The figure is the rate the last passing rung
    *achieved*, a measured number rather than the ladder's nominal step.
    0.0 when the lowest rung already stops the climb.
    """
    best = 0.0
    for rung in rungs:
        if rung.generator_bound() or not rung.meets_slo():
            break
        best = rung.achieved
    return best


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[object, float]:
    """Per-span self time: duration minus the union its children cover.

    ``spans`` are dicts with ``id``, ``parent``, ``start`` and ``end``
    (seconds, one clock).  Children may overlap each other or spill past
    their parent; only the part of the parent's interval that some child
    covers is subtracted, and each instant once.
    """
    children: Dict[object, List[Dict[str, object]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = float(span["start"]), float(span["end"])
        covered = 0.0
        cursor = start
        kids = sorted(
            children.get(span["id"], ()), key=lambda s: float(s["start"])
        )
        for kid in kids:
            lo = max(float(kid["start"]), cursor)
            hi = min(float(kid["end"]), end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def due_time_latencies(
    due: Sequence[float],
    sent: Sequence[Optional[float]],
    received: Sequence[Optional[float]],
) -> Dict[str, List[float]]:
    """Latency from each request's due time, and how late each was sent.

    Timing from the due time rather than the send time charges a stalled
    sender's delay to every request it held back (no coordinated
    omission).  Requests never sent or never answered are left out of
    both lists; the caller counts them as failed.
    """
    latency, lag = [], []
    for t_due, t_sent, t_recv in zip(due, sent, received):
        if t_sent is None or t_recv is None:
            continue
        latency.append(t_recv - t_due)
        lag.append(max(0.0, t_sent - t_due))
    return {"latency": latency, "lag": lag}
