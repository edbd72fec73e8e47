"""The traced run: every layer probed with the workload's own inputs.

One traced run walks the whole stack on the workload's graph, root
distribution and ``k``, recording spans from the benchmark's own files
around each public call and absorbing the program's opt-in spans and
metrics (``Tracer``, ``MetricsRegistry``, ``serve --trace-jsonl`` /
``--metrics-json``):

1. build (``ordering``, ``lu``, ``core.kdash`` phases), snapshot write
   and load;
2. the cache-less kernel scan over the workload's roots;
3. ``QueryEngine.top_k_many`` in batches;
4. an in-process ``MicroBatchScheduler`` over ``ReplicaPool(2)``, then
   one update batch through the publisher and the swap barrier;
5. ``repro serve --port`` driven open-loop;
6. ``repro serve --port --sharded`` driven open-loop.

Every layer is probed on every workload, so each per-layer metric is
measured in every traced run.  The workload's own path is additionally
run twice, untraced and traced, on the same roots; the difference is
reported as the tracing overhead.  The throughput overhead comes from a
closed loop (for ``online-zipf``, the scheduler + pool probe), because an
open loop below its knee achieves its offered rate either way.  Spans are
kept in memory, written as JSONL under ``.perfbench_out/`` and the span
metrics are computed from that file.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

import measure
from spans import SpanRecorder, read_spans
from system import Server
from workloads import (
    BATCH,
    CHECK_ROOTS,
    CHUNK,
    PROBE_QUERIES,
    Reference,
    Run,
    UPDATE_SIZE,
    _build,
    _open_stream,
    _publisher,
    _read_chunk,
    serving_pool,
)

from repro import QueryEngine
from repro.core.index_io import load_index
from repro.obs import MetricsRegistry, Tracer, read_jsonl, registry_from_file
from repro.serving.frontdoor import FrontDoorClient
from repro.serving.loadgen import make_update_batch

#: Open-loop rate of the front-door probe on workloads that are not
#: themselves online, and of the sharded probe on every workload; both
#: well below the tier's knee.
PROBE_RATE = 200.0
PROBE_SHARDED_RATE = 40.0
#: Length of the sharded probe (its medians need no more).
PROBE_SHARDED_SECONDS = 2.0
#: Engine probe length, in ``top_k_many`` batches.
ENGINE_BATCHES = 16


def _spans(spans, name: str, program: Optional[str] = None) -> List[dict]:
    return [
        s
        for s in spans
        if s["name"] == name and (s.get("tags") or {}).get("program") == program
    ]


def _dur(span: dict) -> float:
    return float(span["end"]) - float(span["start"])


class TracedRun:
    def __init__(self, run: Run) -> None:
        self.run = run
        self.wl = run.wl
        self.rec = SpanRecorder()
        self.values: Dict[str, float] = {}
        self.registries: Dict[str, MetricsRegistry] = {}
        self.overhead: Dict[str, Dict[str, Dict[str, float]]] = {}

    # -- 1. build, write, load ----------------------------------------
    def setup(self) -> None:
        rec, run = self.rec, self.run
        t0 = time.perf_counter()
        index = _build(run.graph)
        t1 = time.perf_counter()
        report = index.build_report
        build = rec.add("kdash.build", t0, t1)
        cursor = t0
        for name, seconds in (
            ("ordering.reorder", report.reorder_seconds),
            ("lu.factor", report.lu_seconds),
            ("lu.inverse", report.inverse_seconds),
        ):
            rec.add(name, cursor, cursor + seconds, parent=build)
            cursor += seconds
        self.values["lu.fill_ratio"] = index.index_nnz / run.graph.n_edges
        self.publisher = _publisher(index, run.fresh_dir("traced-store"))
        with rec.span("publisher.write"):
            self.snapshot = self.publisher.publish()
        with rec.span("index_io.load"):
            self.index = load_index(self.snapshot.path)
        self.ref = Reference(self.snapshot.path, self.wl.k)

    # -- 2. kernel --------------------------------------------------------
    def kernel(self) -> None:
        computed = []
        with self.rec.span("probe.kernel") as probe:
            for root in self.run.roots(PROBE_QUERIES):
                with self.rec.span("kernel.top_k", parent=probe):
                    result = self.index.top_k(root, self.wl.k)
                self.ref.check(self.run, root, result.items, "kernel probe")
                computed.append(result.n_computed)
        mean_computed = float(np.mean(computed))
        self.values["kernel.computed"] = mean_computed
        self.values["kernel.useful_ratio"] = self.wl.k / mean_computed

    # -- 3. engine ----------------------------------------------------------
    def engine(self, roots: Sequence[int], traced: bool) -> Dict[str, float]:
        engine = QueryEngine(self.index, cache_size=1024)
        for start in range(0, 16 * BATCH, BATCH):  # fill the cache first
            engine.top_k_many(roots[start : start + BATCH], self.wl.k)
        engine.reset_stats()
        times = []
        answered = []
        t_start = time.perf_counter()
        with self.rec.span("probe.engine") if traced else nullcontext() as probe:
            for start in range(16 * BATCH, len(roots), BATCH):
                batch = roots[start : start + BATCH]
                t0 = time.perf_counter()
                results = engine.top_k_many(batch, self.wl.k)
                t1 = time.perf_counter()
                times.append(t1 - t0)
                answered.append((batch, results))
                if traced:
                    self.rec.add("engine.top_k_many", t0, t1, parent=probe)
        elapsed = time.perf_counter() - t_start
        for batch, results in answered:
            for root, result in zip(batch, results):
                self.ref.check(self.run, root, result.items, "engine probe")
        self.run.attempted += len(times) * BATCH
        if traced:
            stats = engine.stats
            self.values["engine.cache_hit_ratio"] = stats.cache_hits / stats.queries_served
            self.values["engine.dedup_ratio"] = stats.dedup_hits / stats.queries_served
        return {
            "p50_ms": measure.median(times) * 1e3,
            "qps": (len(times) * BATCH) / elapsed,
        }

    # -- 4. scheduler + replica pool, one update batch -------------------
    def pool(self, roots: Sequence[int], traced: bool) -> Dict[str, float]:
        registry = MetricsRegistry() if traced else None
        tracer = Tracer() if traced else None
        pool, scheduler = serving_pool(self.snapshot, registry, tracer)
        try:
            sample = roots[:CHECK_ROOTS]
            for root, result in zip(sample, scheduler.run(sample, self.wl.k)):
                self.ref.check(self.run, root, result.items, "pool probe")
            latency = []
            t_start = time.perf_counter()
            for start in range(0, len(roots), CHUNK):
                chunk = roots[start : start + CHUNK]
                t0 = time.perf_counter()
                _read_chunk(scheduler, chunk, self.wl.k)
                latency.extend([time.perf_counter() - t0] * len(chunk))
            elapsed = time.perf_counter() - t_start
            self.run.attempted += len(roots)
            if traced:
                self._update(scheduler)
                self.registries["pool"] = registry
                self.rec.absorb_program(tracer.export(), "pool")
        finally:
            pool.close()
        return {
            "p50_ms": measure.median(latency) * 1e3,
            "qps": len(roots) / elapsed,
        }

    def _update(self, scheduler) -> None:
        rec = self.rec
        scratch = self.publisher.engine.dynamic.graph.copy()
        rng = np.random.default_rng(self.run.seed + 5)
        inserts, deletes = make_update_batch(scratch, UPDATE_SIZE, rng)
        with rec.span("update.visible") as visible:
            with rec.span("dynamic.apply", parent=visible):
                self.publisher.engine.apply_updates(inserts, deletes)
            with rec.span("publisher.publish", parent=visible):
                snapshot = self.publisher.publish()
            with rec.span("scheduler.swap", parent=visible):
                scheduler.publish(snapshot)
        sample = self.run.roots(CHECK_ROOTS)
        ref = Reference(snapshot.path, self.wl.k)
        for root, result in zip(sample, scheduler.run(sample, self.wl.k)):
            ref.check(self.run, root, result.items, "pool probe after swap")

    # -- 5./6. servers --------------------------------------------------------
    def server(
        self,
        name: str,
        roots: Sequence[int],
        rate: float,
        traced: bool,
        sharded: bool,
    ) -> Dict[str, float]:
        work = self.run.fresh_dir(f"{name}-{int(traced)}")
        extra = ["--sharded", "--shards", "2"] if sharded else []
        metrics_path = os.path.join(work, "metrics.json")
        trace_path = os.path.join(work, "trace.jsonl")
        if traced:
            extra += ["--metrics-json", metrics_path, "--trace-jsonl", trace_path]
        server = Server(self.snapshot.path, work, extra=extra).start()
        try:
            with FrontDoorClient("127.0.0.1", server.port, timeout=60.0) as client:
                for root in roots[:CHECK_ROOTS]:
                    response = client.query(root, self.wl.k)
                    self.ref.check(self.run, root, response["items"], f"{name} probe")
            stream = _open_stream(server.port, roots, self.wl.k, rate, self.run.seed + 7)
            self.ref.check_stream(self.run, stream, f"{name} probe")
            self.run.attempted += stream.attempted
            self.run.failed += stream.failed
        finally:
            server.stop()
        timed = stream.latencies()
        if traced:
            for i in stream.ok_ids:
                self.rec.add(
                    "client.request", stream.due[i], stream.received[i],
                    probe=name, lag=stream.sent[i] - stream.due[i],
                )
            self.registries[name] = registry_from_file(metrics_path)
            self.rec.absorb_program(read_jsonl(trace_path), name)
            if len(timed["lag"]) >= measure.min_samples(99.0):
                self.values["loadgen.lag_p99_ms"] = measure.tail(timed["lag"]) * 1e3
        return {
            "p50_ms": measure.median(timed["latency"]) * 1e3,
            "qps": stream.achieved_qps(),
        }

    # -- the whole walk ---------------------------------------------------
    def walk(self) -> None:
        wl, run = self.wl, self.run
        self.setup()
        self.kernel()

        primary = {"batch": "engine", "churn": "pool", "online": "frontdoor"}[wl.mode]
        frontdoor_rate = wl.rate if wl.mode == "online" else PROBE_RATE
        probes = [
            ("engine", (16 + ENGINE_BATCHES) * BATCH, self.engine),
            ("pool", PROBE_QUERIES, self.pool),
            (
                "frontdoor",
                max(measure.min_samples(99.0), int(frontdoor_rate * 2)),
                partial(self.server, "frontdoor", rate=frontdoor_rate, sharded=False),
            ),
            (
                "sharded",
                int(PROBE_SHARDED_RATE * PROBE_SHARDED_SECONDS),
                partial(self.server, "sharded", rate=PROBE_SHARDED_RATE, sharded=True),
            ),
        ]
        # The open-loop front door achieves whatever rate it is offered
        # below its knee, traced or not, so tracing's throughput cost is
        # taken on a closed loop: the workload's own, or for online-zipf
        # the scheduler + pool loop the front door serves through.
        closed = primary if primary in ("engine", "pool") else "pool"
        for name, count, probe in probes:
            roots = run.roots(count)
            if name in (primary, closed):
                self.overhead[name] = {
                    "untraced": probe(roots, traced=False),
                    "traced": probe(roots, traced=True),
                }
            else:
                probe(roots, traced=True)
        self.overhead_from = (primary, closed)

    def finish(self) -> Dict[str, float]:
        """Write the spans, read them back and derive every layer metric."""
        run = self.run
        os.makedirs(run.out, exist_ok=True)
        path = os.path.join(run.out, f"{run.wl.name}-seed{run.seed}.jsonl")
        self.rec.write(path)
        print(json.dumps({"spans": path, "count": len(self.rec.spans)}), flush=True)
        spans = read_spans(path)
        own = measure.self_times(spans)
        v = self.values

        def one(name: str, program: Optional[str] = None) -> dict:
            (span,) = _spans(spans, name, program)
            return span

        v["ordering.reorder_s"] = _dur(one("ordering.reorder"))
        v["lu.factor_s"] = _dur(one("lu.factor"))
        v["lu.inverse_s"] = _dur(one("lu.inverse"))
        v["kdash.prepare_s"] = own[one("kdash.build")["id"]]
        v["publisher.write_s"] = _dur(one("publisher.write"))
        v["index_io.load_s"] = _dur(one("index_io.load"))
        v["dynamic.apply_s"] = _dur(one("dynamic.apply"))
        v["publisher.publish_s"] = _dur(one("publisher.publish"))
        v["scheduler.swap_s"] = _dur(one("scheduler.swap"))
        v["publisher.visible_s"] = _dur(one("update.visible"))

        scans = [_dur(s) * 1e6 for s in _spans(spans, "kernel.top_k")]
        v["kernel.scan_p50_us"] = measure.median(scans)
        v["kernel.scan_p99_us"] = measure.tail(scans)
        v["engine.batch_ms"] = measure.median(
            [_dur(s) * 1e3 for s in _spans(spans, "engine.top_k_many")]
        )

        request = self.registries["pool"].histogram(
            "repro_request_seconds", labels={"tier": "replica"}
        )
        v["scheduler.request_p50_ms"] = request.quantile(0.5) * 1e3
        v["scheduler.request_p99_ms"] = request.quantile(0.99) * 1e3
        batches = _spans(spans, "worker.batch", "pool")
        v["scheduler.batch_fill"] = float(
            np.mean([s["tags"]["batch_size"] for s in batches])
        )
        v["replica.batch_ms"] = measure.median([own[s["id"]] * 1e3 for s in batches])
        v["replica.ipc_ms"] = v["scheduler.request_p50_ms"] - v["replica.batch_ms"]

        door = self.registries["frontdoor"]
        client = [_dur(s) * 1e3 for s in spans if s["name"] == "client.request"
                  and s["tags"].get("probe") == "frontdoor"]
        served = door.histogram("repro_request_seconds", labels={"tier": "replica"})
        v["frontdoor.self_ms"] = measure.median(client) - served.quantile(0.5) * 1e3
        for outcome in ("rejected", "deadline_exceeded", "error"):
            v[f"frontdoor.{outcome}"] = sum(
                self.registries[name].counter(
                    "repro_frontdoor_requests_total", labels={"outcome": outcome}
                ).value
                for name in ("frontdoor", "sharded")
            )

        shard_reg = self.registries["sharded"]
        queries = shard_reg.counter("repro_sharded_queries_total").value
        visited = shard_reg.counter("repro_sharded_shards_visited_total").value
        skipped = shard_reg.counter("repro_sharded_shards_skipped_total").value
        v["planner.fan_out"] = visited / queries
        v["planner.skip_ratio"] = skipped / (visited + skipped)
        per_query: Dict[int, List[dict]] = {}
        for s in _spans(spans, "kernel.scan", "sharded"):
            per_query.setdefault(s["trace"], []).append(s)
        v["sharded.computed"] = float(
            np.mean([sum(x["tags"]["n_computed"] for x in q) for q in per_query.values()])
        )
        v["sharded.scan_ms"] = measure.median(
            [sum(_dur(x) for x in q) * 1e3 for q in per_query.values()]
        )

        primary, closed = (self.overhead[name] for name in self.overhead_from)
        v["trace.overhead_p50_ms"] = primary["traced"]["p50_ms"] - primary["untraced"]["p50_ms"]
        v["trace.overhead_qps"] = closed["traced"]["qps"] - closed["untraced"]["qps"]
        return v


def run_traced(run: Run) -> Dict[str, float]:
    traced = TracedRun(run)
    traced.walk()
    return traced.finish()
