"""Open-loop Poisson traffic over one connection, timed from due times.

Send times are drawn up front and honoured whatever the responses do.
Each request's latency runs from the moment it was *due*, not from the
moment the sender got round to it, so a stalled sender charges its
delay to every request it held back; how late the sender ran is
reported separately as lag, the check that a run measured the program
and not the generator.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from measure import due_time_latencies


def poisson_offsets(count: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """``count`` cumulative send offsets (seconds) of a Poisson process."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


@dataclass
class OpenLoopRun:
    """What one open-loop stream sent, when, and what came back."""

    queries: List[int]
    due: List[float]
    sent: List[Optional[float]]
    received: List[Optional[float]]
    responses: Dict[int, dict] = field(default_factory=dict)
    transport_errors: List[str] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.queries)

    @property
    def ok_ids(self) -> List[int]:
        return [
            i for i, r in sorted(self.responses.items()) if r.get("status") == "ok"
        ]

    @property
    def failed(self) -> int:
        """Non-``ok`` statuses, lost results and unsent requests."""
        return self.attempted - len(self.ok_ids)

    def statuses(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for response in self.responses.values():
            status = str(response.get("status", "error"))
            counts[status] = counts.get(status, 0) + 1
        lost = self.attempted - len(self.responses)
        if lost:
            counts["lost"] = lost
        return counts

    def latencies(self) -> Dict[str, List[float]]:
        """Due-time latency of ``ok`` requests and lag of every sent one."""
        ok = set(self.ok_ids)
        received = [
            t if i in ok else None for i, t in enumerate(self.received)
        ]
        timed = due_time_latencies(self.due, self.sent, received)
        lag = [
            max(0.0, s - d) for d, s in zip(self.due, self.sent) if s is not None
        ]
        return {"latency": timed["latency"], "lag": lag}

    def achieved_qps(self) -> float:
        """``ok`` completions per second from the first due time to the last answer."""
        span = self.finished - self.started
        return len(self.ok_ids) / span if span > 0 else 0.0


def drive(
    client,
    queries: Sequence[int],
    k: int,
    offsets: Sequence[float],
    settle_timeout: float = 60.0,
) -> OpenLoopRun:
    """Offer ``queries`` at ``offsets`` over ``client``; wait for every answer.

    ``client`` needs ``send(payload)`` and a blocking ``recv()`` usable
    from two threads at once (one sender, one receiver), as
    :class:`repro.serving.frontdoor.FrontDoorClient` is.  Requests carry
    their index as ``id``.  Answers still missing ``settle_timeout``
    seconds after the last send count as lost.
    """
    n = len(queries)
    run = OpenLoopRun(
        queries=[int(q) for q in queries],
        due=[0.0] * n,
        sent=[None] * n,
        received=[None] * n,
    )
    done = threading.Event()

    def receive() -> None:
        try:
            for _ in range(n):
                response = client.recv()
                t = time.perf_counter()
                rid = response.get("id")
                if isinstance(rid, int) and 0 <= rid < n:
                    run.received[rid] = t
                    run.responses[rid] = response
        except Exception as exc:  # a dead connection ends the stream
            run.transport_errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            done.set()

    receiver = threading.Thread(target=receive, name="perfbench-recv", daemon=True)
    receiver.start()
    t0 = time.perf_counter()
    run.started = t0
    for i, (query, offset) in enumerate(zip(run.queries, offsets)):
        due = t0 + float(offset)
        run.due[i] = due
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        run.sent[i] = time.perf_counter()
        try:
            client.send({"op": "query", "id": i, "query": query, "k": int(k)})
        except OSError as exc:
            run.transport_errors.append(f"{type(exc).__name__}: {exc}")
            run.sent[i] = None
            break
    done.wait(timeout=settle_timeout)
    received = [t for t in run.received if t is not None]
    run.finished = max(received) if received else time.perf_counter()
    if not done.is_set():
        # Unblock the receiver; whatever is still missing is lost.
        client.close()
        receiver.join(timeout=10.0)
    else:
        receiver.join(timeout=10.0)
    return run
