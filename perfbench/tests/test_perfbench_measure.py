"""The benchmark's own arithmetic, on synthetic inputs.

Run with ``python -m pytest perfbench/tests -q`` from the checkout root.
"""

import os
import queue
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import measure  # noqa: E402
from measure import Rung  # noqa: E402
from openloop import drive  # noqa: E402
from spans import SpanRecorder  # noqa: E402


# -- tail percentile -----------------------------------------------------
def test_p99_needs_ten_samples_beyond_it():
    need = measure.min_samples(99.0)
    assert measure.beyond(need, 99.0) == measure.MIN_BEYOND
    assert measure.beyond(need - 1, 99.0) == measure.MIN_BEYOND - 1
    samples = [float(i) for i in range(need)]
    assert measure.tail(samples, 99.0) == pytest.approx(measure.percentile(samples, 99.0))
    with pytest.raises(ValueError, match="needs 10 samples beyond"):
        measure.tail(samples[:-1], 99.0)


def test_samples_beyond_the_tail_are_really_above_it():
    for n in (902, 1000, 1080, 5000):
        samples = [float(i) for i in range(n)]
        p99 = measure.tail(samples, 99.0)
        above = sum(1 for x in samples if x > p99)
        assert above == measure.beyond(n, 99.0) >= 10


def test_highest_tail_picks_the_highest_level_the_sample_carries():
    assert measure.highest_tail([1.0] * 1000)[0] == 99.0
    assert measure.highest_tail([1.0] * 500)[0] == 95.0
    assert measure.highest_tail([1.0] * 120)[0] == 90.0
    assert measure.highest_tail([1.0] * 50) is None


def test_percentile_interpolates():
    assert measure.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert measure.median([5.0, 1.0, 3.0]) == 3.0
    with pytest.raises(ValueError):
        measure.percentile([], 50.0)


# -- max_qps rung selection -----------------------------------------------
def rung(offered, p99=5.0, failed=0, achieved=None, lag=0.5):
    return Rung(
        offered=offered,
        scheduled=offered,
        achieved=offered if achieved is None else achieved,
        p99_ms=p99,
        attempted=1000,
        failed=failed,
        lag_p99_ms=lag,
    )


def test_max_qps_reports_what_the_top_rung_achieved():
    assert measure.max_qps([rung(100), rung(200, achieved=198.5)]) == 198.5


def test_max_qps_is_the_last_rung_before_the_first_miss():
    assert measure.max_qps([rung(100), rung(200), rung(400)]) == 400
    assert measure.max_qps([rung(100), rung(200), rung(400, p99=80.0)]) == 200


def test_max_qps_slo_latency_limit_is_inclusive():
    assert measure.max_qps([rung(100, p99=measure.SLO_P99_MS)]) == 100
    assert measure.max_qps([rung(100, p99=measure.SLO_P99_MS + 0.01)]) == 0.0


def test_max_qps_backlog_misses_even_with_low_latency():
    # Completions fell behind the schedule: a growing backlog.
    assert measure.max_qps([rung(100), rung(200, achieved=180.0)]) == 100
    assert measure.max_qps([rung(100), rung(200, achieved=191.0)]) == 191.0


def test_max_qps_any_failure_misses():
    assert measure.max_qps([rung(100), rung(200, failed=1)]) == 100


def test_max_qps_stops_at_first_miss_even_if_a_higher_rung_passes():
    assert measure.max_qps([rung(100), rung(200, failed=3), rung(400)]) == 100


def test_generator_bound_rung_ends_the_climb_without_counting():
    late = measure.GENERATOR_LAG_MS + 0.01
    # A passing rung the sender could not offer on time is not a pass...
    assert measure.max_qps([rung(100), rung(200, lag=late), rung(400)]) == 100
    # ...and a missing one is not charged to the program as a miss.
    ladder = [rung(100), rung(200, p99=80.0, lag=late)]
    assert measure.max_qps(ladder) == 100
    assert measure.ladder_end(ladder) == "generator"
    assert measure.max_qps([rung(100, lag=measure.GENERATOR_LAG_MS)]) == 100


def test_ladder_end_names_why_the_climb_stopped():
    assert measure.ladder_end([rung(100), rung(200)]) == "top"
    assert measure.ladder_end([rung(100), rung(200, p99=80.0)]) == "slo"
    assert measure.ladder_end([rung(100, failed=1), rung(200, lag=99.0)]) == "slo"


def test_max_qps_zero_when_lowest_rung_misses():
    assert measure.max_qps([rung(100, p99=500.0), rung(200)]) == 0.0
    assert measure.max_qps([]) == 0.0


# -- span self time ----------------------------------------------------------
def span(i, start, end, parent=None):
    return {"id": i, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_children_once():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 3.0, parent=1),
        span(3, 2.0, 5.0, parent=1),  # overlaps span 2
        span(4, 9.0, 12.0, parent=1),  # spills past the parent
        span(5, 2.5, 2.7, parent=3),  # grandchild: not the parent's business
    ]
    own = measure.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own[3] == pytest.approx(3.0 - 0.2)
    assert own[5] == pytest.approx(0.2)
    assert own[4] == pytest.approx(3.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert measure.self_times([span("a", 1.0, 1.5)]) == {"a": pytest.approx(0.5)}


def test_recorder_links_children_and_shares_the_trace():
    rec = SpanRecorder()
    with rec.span("outer") as outer:
        with rec.span("inner", parent=outer):
            time.sleep(0.002)
        rec.add("leaf", 0.0, 0.0, parent=outer)
    with rec.span("other"):
        pass
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["inner"]["parent"] == outer
    assert by_name["inner"]["trace"] == by_name["outer"]["trace"]
    assert by_name["leaf"]["trace"] == by_name["outer"]["trace"]
    assert by_name["other"]["trace"] != by_name["outer"]["trace"]
    own = measure.self_times(rec.spans)
    assert own[outer] <= by_name["outer"]["end"] - by_name["outer"]["start"]


def test_program_records_rebased_and_linked():
    rec = SpanRecorder()
    now = time.time()
    rec.absorb_program(
        [
            {"trace_id": 1, "span_id": 1, "parent_id": None, "name": "scheduler.query",
             "start": now, "seconds": 0.01, "tags": {}},
            {"trace_id": 1, "span_id": 7, "parent_id": 1, "name": "worker.batch",
             "start": now + 0.001, "seconds": 0.004, "tags": {"batch_size": 3}},
        ],
        "pool",
    )
    root, child = rec.spans
    assert child["parent"] == root["id"] and child["trace"] == root["trace"]
    assert child["tags"] == {"batch_size": 3, "program": "pool"}
    assert abs(root["start"] - time.perf_counter()) < 5.0
    assert measure.self_times(rec.spans)[root["id"]] == pytest.approx(0.006)


# -- due-time latency ----------------------------------------------------------
def test_due_time_latency_charges_the_wait():
    timed = measure.due_time_latencies(
        due=[0.0, 1.0, 2.0, 3.0],
        sent=[0.0, 1.5, 2.0, None],
        received=[0.1, 1.6, None, 3.2],
    )
    assert timed["latency"] == pytest.approx([0.1, 0.6])
    assert timed["lag"] == pytest.approx([0.0, 0.5])


class EchoClient:
    """Answers every request at once; ``stall`` seconds inside one send."""

    def __init__(self, stall_on, stall):
        self.stall_on, self.stall = stall_on, stall
        self.replies = queue.Queue()
        self.closed = threading.Event()

    def send(self, payload):
        if payload["id"] == self.stall_on:
            time.sleep(self.stall)
        self.replies.put({"id": payload["id"], "status": "ok", "items": []})

    def recv(self):
        while not self.closed.is_set():
            try:
                return self.replies.get(timeout=0.05)
            except queue.Empty:
                continue
        raise ConnectionError("closed")

    def close(self):
        self.closed.set()


def test_sender_stall_shows_in_due_time_latency_and_lag():
    stall = 0.2
    offsets = [0.01 * i for i in range(10)]
    run = drive(EchoClient(stall_on=2, stall=stall), list(range(10)), 5, offsets)
    assert run.failed == 0 and run.attempted == 10
    timed = run.latencies()
    # Requests due while the sender was stuck waited for it: their
    # due-time latency covers the stall, though each was answered as
    # soon as it was sent.
    held_back = timed["latency"][3:]
    assert min(held_back) >= stall - 0.1
    send_to_answer = [run.received[i] - run.sent[i] for i in range(3, 10)]
    assert max(send_to_answer) < stall / 2
    assert max(timed["lag"]) >= stall - 0.1
    # Before the stall nothing was late.
    assert max(timed["latency"][:2]) < stall / 2


def test_lost_answers_count_as_failed():
    class Silent(EchoClient):
        def send(self, payload):
            if payload["id"] % 2 == 0:
                super().send(payload)

    run = drive(Silent(stall_on=-1, stall=0.0), [1, 2, 3, 4], 5, [0.0, 0.0, 0.0, 0.0],
                settle_timeout=0.3)
    assert run.attempted == 4 and run.failed == 2
    assert run.statuses() == {"ok": 2, "lost": 2}
    assert len(run.latencies()["latency"]) == 2

