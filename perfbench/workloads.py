"""The four workloads: untraced end-to-end runs and the traced layer run.

Each workload builds its inputs from the seed (a ``scale_free_digraph``
with ``n`` nodes and ``4n`` edges, c = 0.95, and a root stream), sets
the system up several times, checks a sample of answers bit for bit
against an in-process :class:`repro.QueryEngine` over the same
snapshot, and only then times its stream.  See ``README.md`` for what
each workload is for and which layer it puts in charge.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

import measure
from openloop import drive, poisson_offsets
from system import Server, dir_mb, peak_rss_mb, tree_peak_rss_mb

from repro import KDash, QueryEngine
from repro.core import DynamicKDash
from repro.core.index_io import load_index, save_index
from repro.graph.generators import scale_free_digraph
from repro.serving import (
    MicroBatchScheduler,
    ReplicaPool,
    SnapshotPublisher,
    SnapshotStore,
)
from repro.serving.frontdoor import FrontDoorClient
from repro.serving.loadgen import make_queries, make_update_batch

C = 0.95
#: Seed of every workload's graph.  ``--seed`` draws the traffic (roots,
#: Poisson schedule, update batches) over this fixed graph, so the
#: run-to-run spread measures the program rather than the graph drawn.
GRAPH_SEED = 5
#: Roots whose answers are checked before anything is timed.
CHECK_ROOTS = 64
#: Set-ups per run; ``setup_s`` is the fastest (see :func:`_setup_s`).
SETUPS = 5
#: ``top_k_many`` batch size of the offline scorer.
BATCH = 64
#: Churn: closed-loop chunks of reads between update batches (480 reads,
#: about 500 in whole chunks), edge changes per batch, and the
#: chunk (one scheduler micro-batch per worker).
CHUNKS_PER_UPDATE = 15
UPDATE_SIZE = 8
MIN_UPDATES = 3
CHUNK = 32
#: Open-loop ladder: coarse rungs grow by 1.5x from the fixed rate, fine
#: rungs by 1.08x from the last coarse rung that met the SLO.
LADDER_COARSE = 1.5
LADDER_FINE = 1.08
LADDER_MAX = 30000.0
RUNG_MIN_SECONDS = 0.4
#: Traced run: roots per kernel and pool probe.
PROBE_QUERIES = 1024


class Mismatch(Exception):
    """An answer differed from the in-process reference engine."""


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    dist: str
    k: int
    mode: str  # "online", "batch" or "churn"
    rate: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("online-zipf", 3000, "zipf", 10, "online", rate=500.0),
        Workload("batch-uniform", 3000, "uniform", 50, "batch"),
        Workload("churn", 2000, "zipf", 10, "churn"),
    )
}


class Run:
    """Per-invocation state: where to write, the inputs, the tallies."""

    def __init__(self, root: str, workload: Workload, seed: int, seconds: float):
        self.root = root
        self.wl = workload
        self.seed = seed
        self.seconds = float(seconds)
        self.tmp = os.path.join(root, ".perfbench_tmp", f"{workload.name}-{seed}-{os.getpid()}")
        self.out = os.path.join(root, ".perfbench_out")
        os.makedirs(self.tmp, exist_ok=True)
        self.graph = scale_free_digraph(workload.n, 4 * workload.n, seed=GRAPH_SEED)
        self.stream = make_queries(workload.n, 400_000, dist=workload.dist, seed=seed + 1)
        self._cursor = 0
        self.attempted = 0
        self.failed = 0
        self.checked = 0

    def roots(self, count: int) -> List[int]:
        """The next ``count`` roots of the stream (wraps around)."""
        out = []
        while len(out) < count:
            take = self.stream[self._cursor : self._cursor + count - len(out)]
            out.extend(take)
            self._cursor = (self._cursor + len(take)) % len(self.stream)
        return out

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.tmp, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        parent = os.path.dirname(self.tmp)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------
class Reference:
    """Answers of an in-process, cache-less engine over one index archive."""

    def __init__(self, path: str, k: int) -> None:
        self.engine = QueryEngine(load_index(path), cache_size=0)
        self.k = k
        self._answers: Dict[int, list] = {}

    def expect(self, root: int) -> list:
        if root not in self._answers:
            (result,) = self.engine.top_k_many([root], self.k)
            self._answers[root] = [[int(v), float(p)] for v, p in result.items]
        return self._answers[root]

    def check(self, run: Run, root: int, items, where: str) -> None:
        got = [[int(v), float(p)] for v, p in items]
        if got != self.expect(root):
            raise Mismatch(f"{where}: root {root} answered {got[:3]}... expected {self.expect(root)[:3]}...")
        run.checked += 1

    def check_stream(self, run: Run, stream, where: str) -> None:
        """Every ``ok`` answer of an open-loop stream."""
        for i in stream.ok_ids:
            self.check(run, stream.queries[i], stream.responses[i]["items"], where)


# ----------------------------------------------------------------------
# Set-up helpers (each is one timed set-up)
# ----------------------------------------------------------------------
def _build(graph) -> KDash:
    return KDash(graph, c=C).build()


def _publisher(index: KDash, directory: str) -> SnapshotPublisher:
    engine = QueryEngine(DynamicKDash.from_index(index, rebuild_threshold=None))
    return SnapshotPublisher(engine, SnapshotStore(directory))


def _start_server(run: Run, work: str) -> Server:
    index_path = os.path.join(work, "index.npz")
    save_index(_build(run.graph), index_path)
    return Server(index_path, work).start()


def _open_stream(port: int, queries: Sequence[int], k: int, rate: float, seed: int):
    offsets = poisson_offsets(len(queries), rate, np.random.default_rng(seed))
    with FrontDoorClient("127.0.0.1", port, timeout=120.0) as client:
        return drive(client, queries, k, offsets)


def _print_latencies(latencies: Sequence[float]) -> None:
    """Print the timed stream's latency median (seconds in), its sample
    count and the highest tail the sample can carry (p99 from 902
    samples on).  They are reported, not gated: see ``README.md``."""
    samples = [x * 1e3 for x in latencies]
    info = {"latency_samples": len(samples), "p50_ms": measure.median(samples)}
    tail = measure.highest_tail(samples)
    if tail is not None:
        info[f"p{tail[0]:g}_ms"] = tail[1]
    print(json.dumps(info), flush=True)


def _setup_s(setups: Sequence[float]) -> float:
    """``setup_s``: the fastest of the run's set-ups, each printed.

    A set-up is one single-threaded build of a few seconds, and another
    tenant of the shared machine can slow a whole one by half; the
    fastest is the least disturbed, and it still moves with a slower
    build.  ``README.md`` gives the measured spreads.  Each set-up
    starts from a collected heap, so what an earlier one left behind is
    not charged to the next.
    """
    print(json.dumps({"setups_s": list(setups)}), flush=True)
    return min(setups)


# ----------------------------------------------------------------------
# Untraced end-to-end runs
# ----------------------------------------------------------------------
def run_online(run: Run) -> Dict[str, float]:
    wl = run.wl
    setups: List[float] = []
    server: Optional[Server] = None
    try:
        for i in range(SETUPS):
            if server is not None:
                server.stop()
            work = run.fresh_dir(f"setup{i}")
            gc.collect()
            t0 = time.perf_counter()
            server = _start_server(run, work)
            setups.append(time.perf_counter() - t0)
        index_mb = dir_mb(server.snapshot_dir)
        ref = Reference(os.path.join(server.snapshot_dir, "snapshot-00000000.npz"), wl.k)
        with FrontDoorClient("127.0.0.1", server.port, timeout=60.0) as client:
            for root in run.roots(CHECK_ROOTS):
                response = client.query(root, wl.k)
                if response.get("status") != "ok":
                    raise Mismatch(f"check query {root}: status {response.get('status')}")
                ref.check(run, root, response["items"], "pre-check")
        # Let the worker caches fill before timing (not counted).
        _open_stream(server.port, run.roots(int(wl.rate)), wl.k, wl.rate, run.seed + 2)

        count = int(wl.rate * run.seconds)
        if count < measure.min_samples(99.0):
            raise ValueError(f"{count} requests cannot carry a p99; raise --seconds")
        fixed = _open_stream(server.port, run.roots(count), wl.k, wl.rate, run.seed + 3)
        run.attempted += fixed.attempted
        run.failed += fixed.failed
        print(json.dumps({"statuses": fixed.statuses()}), flush=True)
        ref.check_stream(run, fixed, "fixed-rate stream")
        _print_latencies(fixed.latencies()["latency"])
        rungs = climb(server.port, run, ref, _rung(fixed, wl.rate))
        metrics = {"qps": measure.max_qps(rungs)}
        print(json.dumps({
            "ladder": [dict(vars(r), generator_bound=r.generator_bound()) for r in rungs],
            "ladder_end": measure.ladder_end(rungs),
        }), flush=True)
        metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    metrics["setup_s"] = _setup_s(setups)
    metrics["index_mb"] = index_mb
    return metrics


def _rung(stream, rate: float) -> measure.Rung:
    """One open-loop stream judged as a rung of the ladder at ``rate``."""
    timed = stream.latencies()
    latency = [x * 1e3 for x in timed["latency"]]
    try:
        p99 = measure.tail(latency, 99.0)
    except ValueError:
        p99 = float("inf")
    lag = [x * 1e3 for x in timed["lag"]]
    return measure.Rung(
        offered=rate,
        scheduled=stream.attempted / max(stream.due[-1] - stream.started, 1e-9),
        achieved=stream.achieved_qps(),
        p99_ms=p99,
        attempted=stream.attempted,
        failed=stream.failed,
        lag_p99_ms=measure.percentile(lag, 99.0) if lag else float("inf"),
    )


def climb(port: int, run: Run, ref: Reference, first: measure.Rung) -> List[measure.Rung]:
    """The offered-rate ladder: coarse steps until a miss, then fine steps.

    ``first`` is the fixed-rate stream, judged as the lowest rung; the
    climb starts one coarse step above it.  A rung that misses the SLO
    or is generator-bound, the first included, is offered once more and
    ends the climb only if it does so again, so a single stall of a
    shared machine does not end the climb; a limit of the program misses
    both times.
    """
    rungs: List[measure.Rung] = [first]

    def attempt(rate: float) -> measure.Rung:
        count = max(measure.min_samples(99.0), int(rate * RUNG_MIN_SECONDS))
        stream = _open_stream(port, run.roots(count), run.wl.k, rate, run.seed + 10 + len(rungs))
        ref.check_stream(run, stream, f"ladder rung {rate:.0f}/s")
        time.sleep(0.05)  # let the backlog of a missed rung clear
        return _rung(stream, rate)

    def passes(result: measure.Rung) -> bool:
        return result.meets_slo() and not result.generator_bound()

    def rung(rate: float) -> bool:
        result = attempt(rate)
        if not passes(result):
            result = attempt(rate)
        rungs.append(result)
        return passes(result)

    if not passes(first):
        rungs[0] = first = attempt(first.offered)
        if not passes(first):
            return rungs
    last_ok = first.offered
    rate = last_ok * LADDER_COARSE
    while rate <= LADDER_MAX and rung(rate):
        last_ok = rate
        rate *= LADDER_COARSE
    ceiling = last_ok * LADDER_COARSE
    rate = last_ok * LADDER_FINE
    while rate < ceiling and rate <= LADDER_MAX and rung(rate):
        rate *= LADDER_FINE
    # The fine rungs sit between the last coarse pass and the coarse
    # miss; in rate order the climb reads as one ascending ladder.
    return sorted(rungs, key=lambda r: r.offered)


def run_batch(run: Run) -> Dict[str, float]:
    wl = run.wl
    setups: List[float] = []
    engine = snapshot = None
    for i in range(SETUPS):
        engine = None
        store_dir = run.fresh_dir(f"setup{i}")
        gc.collect()
        t0 = time.perf_counter()
        snapshot = _publisher(_build(run.graph), store_dir).publish()
        engine = QueryEngine(load_index(snapshot.path), cache_size=1024)
        engine.top_k_many(run.stream[:1], wl.k)
        setups.append(time.perf_counter() - t0)
    engine.clear_cache()
    ref = Reference(snapshot.path, wl.k)
    sample = run.roots(CHECK_ROOTS)
    for root, result in zip(sample, engine.top_k_many(sample, wl.k)):
        ref.check(run, root, result.items, "pre-check")
    for _ in range(16):  # fill the LRU cache before timing
        engine.top_k_many(run.roots(BATCH), wl.k)

    calls: List[float] = []
    kept = []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < run.seconds:
        batch = run.roots(BATCH)
        t0 = time.perf_counter()
        results = engine.top_k_many(batch, wl.k)
        # Every query of the call is answered when the call returns.
        calls.append(time.perf_counter() - t0)
        if len(kept) * 16 <= len(calls):
            kept.append((batch, results))
    elapsed = time.perf_counter() - t_start
    queries = len(calls) * BATCH
    run.attempted += queries
    for batch, results in kept:
        for root, result in zip(batch, results):
            ref.check(run, root, result.items, "timed batch")
    _print_latencies(calls)
    return dict(
        qps=queries / elapsed,
        setup_s=_setup_s(setups),
        index_mb=os.path.getsize(snapshot.path) / 1e6,
        peak_rss_mb=peak_rss_mb([os.getpid()]),
    )


def serving_pool(snapshot, registry=None, tracer=None):
    """``ReplicaPool(2)`` under a ``MicroBatchScheduler`` with the shipped
    serving defaults (rr router, batch 32, LRU 1024); the telemetry hooks
    are on only when given."""
    pool = ReplicaPool(snapshot, 2, cache_size=1024)
    scheduler = MicroBatchScheduler(
        pool, router="rr", batch_size=32, registry=registry, tracer=tracer
    )
    return pool, scheduler


def _start_pool(run: Run, store_dir: str):
    publisher = _publisher(_build(run.graph), store_dir)
    snapshot = publisher.publish()
    pool, scheduler = serving_pool(snapshot)
    scheduler.run(run.stream[:1], run.wl.k)
    return publisher, snapshot, pool, scheduler


def _read_chunk(scheduler, roots: Sequence[int], k: int):
    seqs = [scheduler.submit(q, k) for q in roots]
    scheduler.drain()
    return scheduler.take_results(seqs)


def run_churn(run: Run) -> Dict[str, float]:
    wl = run.wl
    setups: List[float] = []
    pool = None
    try:
        for i in range(SETUPS):
            if pool is not None:
                pool.close()
            store_dir = run.fresh_dir(f"setup{i}")
            gc.collect()
            t0 = time.perf_counter()
            publisher, snapshot, pool, scheduler = _start_pool(run, store_dir)
            setups.append(time.perf_counter() - t0)
        index_mb = os.path.getsize(snapshot.path) / 1e6
        ref = Reference(snapshot.path, wl.k)
        sample = run.roots(CHECK_ROOTS)
        for root, result in zip(sample, scheduler.run(sample, wl.k)):
            ref.check(run, root, result.items, "pre-check")
        for _ in range(8):  # warm the worker caches (not timed)
            _read_chunk(scheduler, run.roots(CHUNK), wl.k)

        scratch = publisher.engine.dynamic.graph.copy()
        rng = np.random.default_rng(run.seed + 4)
        # Update cycles: 480 reads, then one update until every worker
        # serves the new epoch.  The stream ends on a cycle's reads.
        chunks: List[float] = []
        reads = batches = 0
        t_start = time.perf_counter()
        while True:
            last_epoch = []
            for _ in range(CHUNKS_PER_UPDATE):
                roots = run.roots(CHUNK)
                t0 = time.perf_counter()
                results = _read_chunk(scheduler, roots, wl.k)
                # Every read of the chunk is answered when the drain returns.
                chunks.append(time.perf_counter() - t0)
                last_epoch.append((roots, results))
                reads += len(roots)
            elapsed = time.perf_counter() - t_start
            if elapsed >= run.seconds and batches >= MIN_UPDATES:
                break
            inserts, deletes = make_update_batch(scratch, UPDATE_SIZE, rng)
            _, snapshot = publisher.apply_and_publish(inserts, deletes)
            scheduler.publish(snapshot)
            batches += 1
        run.attempted += reads + batches
        # Exactness after the last swap: the stream's last epoch and a
        # fresh sample, against the latest snapshot.
        ref = Reference(snapshot.path, wl.k)
        for roots, results in last_epoch:
            for root, result in zip(roots, results):
                ref.check(run, root, result.items, "post-swap stream")
        for root, result in zip(sample, scheduler.run(sample, wl.k)):
            ref.check(run, root, result.items, "post-swap check")
        peak = tree_peak_rss_mb(os.getpid())
    finally:
        if pool is not None:
            pool.close()
    _print_latencies(chunks)
    return dict(
        qps=reads / elapsed,
        setup_s=_setup_s(setups),
        index_mb=index_mb,
        peak_rss_mb=peak,
    )


RUNNERS = {"online": run_online, "batch": run_batch, "churn": run_churn}


def run_untraced(run: Run) -> Dict[str, float]:
    return RUNNERS[run.wl.mode](run)
