"""Cross-process telemetry: span trees, counter exactness, merged metrics.

The acceptance contract of the observability layer, asserted end to
end against live worker processes:

- a traced request yields one **complete span tree** — ``scheduler.query``
  root, ``scheduler.route`` child, worker-side ``worker.*`` span and a
  ``kernel.scan`` leaf — stitched across the process boundary by the
  context riding the batch envelope;
- the leaf's scan counters match a single-process engine's
  :class:`~repro.query.stats.QueryStats` **bit-for-bit** (the exactness
  contract extends to the telemetry, not just the answers);
- per-worker metrics registries merge into one pool-level registry
  whose histogram counts add up;
- untraced streams stay wire-identical — telemetry off is the old
  protocol.
"""

import os

import pytest

from repro.core import DynamicKDash, KDash
from repro.graph import erdos_renyi_graph, planted_partition_graph
from repro.obs import MetricsRegistry, Tracer
from repro.query import QueryEngine
from repro.serving import (
    MicroBatchScheduler,
    ReplicaPool,
    ShardPool,
    ShardedScheduler,
    SnapshotPublisher,
    SnapshotStore,
    run_load,
)

N = 60
N_COMMUNITIES = 3
N_SHARDED = 15 * N_COMMUNITIES


def replica_graph():
    return erdos_renyi_graph(N, 0.08, seed=42)


def sharded_graph():
    return planted_partition_graph(
        [15] * N_COMMUNITIES, 0.4, 0.02, directed=True, seed=21
    )


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    store = SnapshotStore(str(tmp_path_factory.mktemp("telemetry-snapshots")))
    dyn = DynamicKDash(replica_graph(), c=0.9, rebuild_threshold=None)
    SnapshotPublisher(QueryEngine(dyn), store).publish()
    return store.list_snapshots()[0]


@pytest.fixture(scope="module")
def sharded_snapshot(tmp_path_factory):
    store = SnapshotStore(str(tmp_path_factory.mktemp("telemetry-sharded")))
    dyn = DynamicKDash(sharded_graph(), c=0.95, rebuild_threshold=None)
    SnapshotPublisher(
        QueryEngine(dyn), store, shard_spec=(N_COMMUNITIES, "louvain")
    ).publish()
    return store.list_snapshots()[0]


def spans_by_trace(tracer):
    traces = {}
    for record in tracer.export():
        traces.setdefault(record["trace_id"], []).append(record)
    return traces


def tree_of(trace):
    """name -> [records], plus quick id->record lookup."""
    by_name = {}
    for record in trace:
        by_name.setdefault(record["name"], []).append(record)
    return by_name, {record["span_id"]: record for record in trace}


class TestReplicaSpanTrees:
    # Distinct queries (no repeats) so no LRU/dedup hit swallows a scan;
    # batch_size=1 gives every request its own batch and hence its own
    # worker.batch/kernel.scan pair.
    QUERIES = [3, 11, 28, 40, 7, 55, 19, 32]

    def run_traced(self, snapshot):
        registry, tracer = MetricsRegistry(), Tracer()
        with ReplicaPool(snapshot, 2) as pool:
            scheduler = MicroBatchScheduler(
                pool, router="rr", batch_size=1,
                registry=registry, tracer=tracer,
            )
            results = scheduler.run(self.QUERIES, k=5)
            merged = pool.collect_metrics()
        return registry, tracer, results, merged, scheduler

    def test_every_request_yields_a_complete_tree(self, snapshot):
        _, tracer, _, _, _ = self.run_traced(snapshot)
        traces = spans_by_trace(tracer)
        assert len(traces) == len(self.QUERIES)
        for trace in traces.values():
            by_name, by_id = tree_of(trace)
            assert sorted(by_name) == [
                "kernel.scan", "scheduler.query", "scheduler.route",
                "worker.batch",
            ]
            root = by_name["scheduler.query"][0]
            assert root["parent_id"] is None
            assert by_name["scheduler.route"][0]["parent_id"] == root["span_id"]
            batch = by_name["worker.batch"][0]
            assert batch["parent_id"] == root["span_id"]
            scan = by_name["kernel.scan"][0]
            assert scan["parent_id"] == batch["span_id"]
            # Absorbed worker ids are lifted into positive bands.
            assert all(record["span_id"] > 0 for record in trace)
            assert all(record["seconds"] >= 0.0 for record in trace)

    def test_span_ids_unique_across_workers_and_traces(self, snapshot):
        _, tracer, _, _, _ = self.run_traced(snapshot)
        ids = [record["span_id"] for record in tracer.export()]
        assert len(ids) == len(set(ids))

    def test_leaf_counters_match_single_engine_bit_for_bit(self, snapshot):
        _, tracer, results, _, _ = self.run_traced(snapshot)
        reference = QueryEngine(
            KDash(replica_graph(), c=0.9).build(), cache_size=0
        )
        traces = spans_by_trace(tracer)
        checked = 0
        for trace in traces.values():
            by_name, _ = tree_of(trace)
            root = by_name["scheduler.query"][0]
            scan = by_name["kernel.scan"][0]
            expected = reference.top_k(root["tags"]["query"], root["tags"]["k"])
            stats = reference.last_stats
            assert scan["tags"]["n_visited"] == stats.n_visited
            assert scan["tags"]["n_computed"] == stats.n_computed
            assert scan["tags"]["n_pruned"] == stats.n_pruned
            assert scan["tags"]["executed"] == 1
            assert results[root["tags"]["seq"]].items == expected.items
            checked += 1
        assert checked == len(self.QUERIES)

    def test_leaf_names_the_kernel_backend(self, snapshot):
        from repro.query.backends import resolve_backend_name

        _, tracer, _, _, _ = self.run_traced(snapshot)
        scans = [r for r in tracer.export() if r["name"] == "kernel.scan"]
        assert scans
        assert all(
            r["tags"]["backend"] == resolve_backend_name() for r in scans
        )

    def test_pool_metrics_merge_adds_up(self, snapshot):
        registry, _, _, merged, scheduler = self.run_traced(snapshot)
        snap = merged.snapshot()
        # Every query executed exactly one scan in some worker; the
        # merged counters see the pool total.
        assert snap["counters"]["repro_engine_queries_total"] == len(
            self.QUERIES
        )
        assert snap["counters"]["repro_engine_scans_total"] == len(self.QUERIES)
        assert snap["counters"]["repro_engine_visited_total"] > 0
        hist = snap["histograms"][
            "repro_engine_call_seconds{mode=top_k_many}"
        ]
        assert hist["count"] == len(self.QUERIES)
        # Gather side: one latency sample per request.
        assert scheduler.latency.count == len(self.QUERIES)
        envelope = scheduler.latency.percentiles()
        assert envelope["count"] == len(self.QUERIES)
        assert 0.0 < envelope["p50"] <= envelope["p95"] <= envelope["p99"]
        assert registry.counter("repro_scheduler_batches_total").value == len(
            self.QUERIES
        )

    def test_untraced_stream_is_wire_compatible(self, snapshot):
        with ReplicaPool(snapshot, 2) as pool:
            scheduler = MicroBatchScheduler(pool, router="rr", batch_size=4)
            results = scheduler.run(self.QUERIES, k=5)
        reference = QueryEngine(KDash(replica_graph(), c=0.9).build())
        expected = reference.top_k_many(self.QUERIES, k=5)
        assert [r.items for r in results] == [r.items for r in expected]
        assert scheduler.tracer.export() == []
        assert scheduler.metrics.enabled is False


class TestShardedSpanTrees:
    QUERIES = [0, 17, 31, 44, 9, 26]

    def run_traced(self, sharded_snapshot):
        registry, tracer = MetricsRegistry(), Tracer()
        with ShardPool(sharded_snapshot) as pool:
            scheduler = ShardedScheduler(
                pool, batch_size=1, registry=registry, tracer=tracer
            )
            results = scheduler.run(self.QUERIES, k=5)
            merged = pool.collect_metrics()
        return registry, tracer, results, merged, scheduler

    def test_home_first_tree_shape(self, sharded_snapshot):
        _, tracer, _, _, _ = self.run_traced(sharded_snapshot)
        traces = spans_by_trace(tracer)
        assert len(traces) == len(self.QUERIES)
        for trace in traces.values():
            by_name, by_id = tree_of(trace)
            root = by_name["scheduler.query"][0]
            assert root["parent_id"] is None
            # Exactly one home-phase scan, zero or more remote scans.
            assert len(by_name["worker.home"]) == 1
            assert by_name["worker.home"][0]["parent_id"] == root["span_id"]
            for remote in by_name.get("worker.remote", []):
                assert remote["parent_id"] == root["span_id"]
            # One scheduler.route child per dispatched phase.
            n_phases = len(by_name["worker.home"]) + len(
                by_name.get("worker.remote", [])
            )
            assert len(by_name["scheduler.route"]) == n_phases
            # Every kernel.scan leaf hangs off a worker-phase span.
            for scan in by_name["kernel.scan"]:
                parent = by_id[scan["parent_id"]]
                assert parent["name"] in ("worker.home", "worker.remote")
                assert scan["tags"]["shard"] == parent["tags"]["shard"]
            assert len(by_name["kernel.scan"]) == n_phases

    def test_leaf_counters_sum_to_result_counters(self, sharded_snapshot):
        _, tracer, results, _, _ = self.run_traced(sharded_snapshot)
        reference = QueryEngine(
            KDash(sharded_graph(), c=0.95).build(), cache_size=0
        )
        for trace in spans_by_trace(tracer).values():
            by_name, _ = tree_of(trace)
            root = by_name["scheduler.query"][0]
            result = results[root["tags"]["seq"]]
            scans = by_name["kernel.scan"]
            assert sum(s["tags"]["n_visited"] for s in scans) == result.n_visited
            assert (
                sum(s["tags"]["n_computed"] for s in scans) == result.n_computed
            )
            # Root tags carry the gather-side totals too.
            assert root["tags"]["n_visited"] == result.n_visited
            assert root["tags"]["n_computed"] == result.n_computed
            # And the answers behind those counters are the single-
            # engine answers, bit for bit.
            expected = reference.top_k(root["tags"]["query"], root["tags"]["k"])
            assert result.items == expected.items

    def test_sharded_metrics_counters(self, sharded_snapshot):
        registry, _, _, merged, scheduler = self.run_traced(sharded_snapshot)
        assert registry.counter("repro_sharded_queries_total").value == len(
            self.QUERIES
        )
        assert scheduler.latency.count == len(self.QUERIES)
        snap = merged.snapshot()
        home = snap["histograms"][
            "repro_worker_scan_seconds{phase=home}"
        ]
        assert home["count"] == len(self.QUERIES)


class TestLoadgenEnvelope:
    def test_report_carries_latency_percentiles(self, snapshot):
        registry = MetricsRegistry()
        queries = [3, 11, 28, 40, 7, 55, 19, 32, 3, 11]
        with ReplicaPool(snapshot, 2) as pool:
            scheduler = MicroBatchScheduler(
                pool, router="rr", batch_size=4, registry=registry
            )
            report = run_load(scheduler, queries, k=5, router_name="rr")
        assert report.latency["count"] == len(queries)
        assert report.latency["p50"] > 0.0
        assert report.latency["p99"] >= report.latency["p95"]
        assert report.as_dict()["latency"] == report.latency

    def test_report_latency_empty_without_registry(self, snapshot):
        with ReplicaPool(snapshot, 2) as pool:
            scheduler = MicroBatchScheduler(pool, router="rr", batch_size=4)
            report = run_load(scheduler, [3, 11, 28], k=5, router_name="rr")
        assert report.latency == {}


def _prometheus_values(registry):
    """``{series: value}`` parsed back out of the Prometheus exposition."""
    from repro.obs.export import to_prometheus

    values = {}
    for line in to_prometheus(registry).splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            values[series] = float(value)
    return values


class TestPublisherBuildTelemetry:
    """The publisher exports the published index's build phases, fill
    ratio and snapshot bytes through its registry."""

    PHASES = ("reorder", "lu", "inverse", "total")

    def publish(self, tmp_path, shard_spec=None):
        registry = MetricsRegistry()
        dyn = DynamicKDash(replica_graph(), c=0.9, rebuild_threshold=None)
        publisher = SnapshotPublisher(
            QueryEngine(dyn), SnapshotStore(str(tmp_path)),
            shard_spec=shard_spec, registry=registry,
        )
        return registry, publisher, publisher.publish()

    def assert_describes(self, values, publisher, snapshot):
        index = publisher.engine.index
        report = index.build_report
        seconds = (
            report.reorder_seconds, report.lu_seconds,
            report.inverse_seconds, report.total_seconds,
        )
        for phase, expected in zip(self.PHASES, seconds):
            assert values[f'repro_build_seconds{{phase="{phase}"}}'] == pytest.approx(expected)
        assert values["repro_index_fill_ratio"] == pytest.approx(
            report.fill_in.inverse_ratio
        )
        assert values["repro_snapshot_bytes"] == snapshot.nbytes

    def test_gauges_describe_the_published_index(self, tmp_path):
        registry, publisher, snapshot = self.publish(tmp_path)
        values = _prometheus_values(registry)
        self.assert_describes(values, publisher, snapshot)
        assert snapshot.nbytes == os.path.getsize(snapshot.path)
        assert values["repro_build_seconds{phase=\"total\"}"] >= values[
            "repro_build_seconds{phase=\"inverse\"}"
        ]

    def test_compaction_reports_the_rebuilt_index(self, tmp_path):
        registry, publisher, first = self.publish(tmp_path)
        old_report = publisher.engine.index.build_report
        u, v = next(
            (u, v) for u in range(N) for v in range(N)
            if u != v and not publisher.engine.dynamic.graph.has_edge(u, v)
        )
        _, second = publisher.apply_and_publish(inserts=[(u, v, 1.0)])
        assert publisher.engine.index.build_report is not old_report
        self.assert_describes(_prometheus_values(registry), publisher, second)

    def test_sharded_bytes_count_every_payload(self, tmp_path):
        registry, publisher, snapshot = self.publish(tmp_path, shard_spec=(2, "range"))
        files = [name for name in os.listdir(tmp_path) if name.endswith(".npz")]
        assert len(files) == 3  # manifest + two shard payloads
        expected = sum(os.path.getsize(os.path.join(tmp_path, name)) for name in files)
        assert snapshot.nbytes == expected
        self.assert_describes(_prometheus_values(registry), publisher, snapshot)

    def test_loaded_index_exports_size_but_no_phases(self, tmp_path):
        from repro.core import load_index, save_index

        path = str(tmp_path / "index.npz")
        save_index(KDash(replica_graph(), c=0.9).build(), path)
        registry = MetricsRegistry()
        dyn = DynamicKDash.from_index(load_index(path), rebuild_threshold=None)
        store = SnapshotStore(str(tmp_path / "snapshots"))
        snapshot = SnapshotPublisher(QueryEngine(dyn), store, registry=registry).publish()
        values = _prometheus_values(registry)
        assert not any(series.startswith("repro_build_seconds") for series in values)
        assert values["repro_index_fill_ratio"] == pytest.approx(
            dyn.base_index.index_nnz / dyn.graph.n_edges
        )
        assert values["repro_snapshot_bytes"] == snapshot.nbytes
