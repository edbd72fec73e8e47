"""Hypothesis-driven exactness for the partition-sharded tier.

The PR-4 acceptance bar: for random graphs across the three structural
families, every cell of shard counts {1, 2, 5} × partitioners
{louvain, range} × k ∈ {1, 5, n, n + 7} must make the scatter-gather planner's
top-k — ids, proximities, *and order* — **exactly** equal to the
single-index engine's, with no tolerance.  The dynamic case holds too:
under pending Woodbury corrections both serve the identical corrected
answer, and after the writer compacts, the planner re-shards and stays
exact.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro import DynamicKDash, KDash, QueryEngine
from repro.core import ShardedIndex
from repro.graph import erdos_renyi_graph, grid_graph, scale_free_digraph
from repro.query import ScatterGatherPlanner

SHARD_COUNTS = (1, 2, 5)
PARTITIONERS = ("louvain", "range")


@st.composite
def family_graphs(draw):
    """Graphs from three structurally distinct families."""
    family = draw(st.sampled_from(["erdos_renyi", "scale_free", "grid"]))
    seed = draw(st.integers(0, 10_000))
    if family == "erdos_renyi":
        n = draw(st.integers(8, 30))
        return erdos_renyi_graph(n, 0.15, seed=seed)
    if family == "scale_free":
        n = draw(st.integers(8, 30))
        return scale_free_digraph(n, 3 * n, seed=seed)
    rows = draw(st.integers(3, 5))
    cols = draw(st.integers(3, 5))
    return grid_graph(rows, cols)


def k_values(n: int):
    """The satellite grid's k axis: 1, 5, the full n and a k beyond n."""
    return sorted({1, min(5, n), n, n + 7})


class TestShardedExactness:
    @given(family_graphs(), st.integers(0, 10_000))
    def test_every_cell_matches_single_engine(self, graph, query_seed):
        """ids, proximities and order equal bitwise, cell by cell."""
        rng = np.random.default_rng(query_seed)
        n = graph.n_nodes
        index = KDash(graph, c=0.9).build()
        engine = QueryEngine(index, cache_size=0)
        queries = sorted({int(rng.integers(n)) for _ in range(3)})
        for n_shards in SHARD_COUNTS:
            for partitioner in PARTITIONERS:
                planner = ScatterGatherPlanner(
                    ShardedIndex.from_index(
                        index, n_shards, partitioner=partitioner
                    )
                )
                for k in k_values(n):
                    for query in queries:
                        sharded = planner.top_k(query, k)
                        single = engine.top_k(query, k)
                        assert sharded.items == single.items, (
                            n_shards,
                            partitioner,
                            k,
                            query,
                        )

    @given(family_graphs(), st.integers(0, 10_000))
    def test_batch_api_matches_engine_batch(self, graph, query_seed):
        rng = np.random.default_rng(query_seed)
        n = graph.n_nodes
        index = KDash(graph, c=0.9).build()
        engine = QueryEngine(index, cache_size=0)
        queries = [int(rng.integers(n)) for _ in range(6)]
        planner = ScatterGatherPlanner(
            ShardedIndex.from_index(index, 2, partitioner="louvain")
        )
        got = planner.top_k_many(queries, 4)
        want = engine.top_k_many(queries, 4)
        assert [r.items for r in got] == [r.items for r in want]


class TestShardedDynamicExactness:
    @given(
        family_graphs(),
        st.integers(0, 10_000),
        st.sampled_from(SHARD_COUNTS),
        st.sampled_from(PARTITIONERS),
    )
    def test_pending_corrections_and_compaction(
        self, graph, stream_seed, n_shards, partitioner
    ):
        """Clean → pending-corrected → re-sharded, exact at every stage."""
        rng = np.random.default_rng(stream_seed)
        n = graph.n_nodes
        dyn = DynamicKDash(graph, c=0.9, rebuild_threshold=None)
        engine = QueryEngine(dyn)
        planner = ScatterGatherPlanner(
            ShardedIndex.from_index(
                dyn.base_index, n_shards, partitioner=partitioner
            ),
            dynamic=dyn,
        )
        queries = [int(rng.integers(n)) for _ in range(3)]
        for k in k_values(n):
            for query in queries:
                assert planner.top_k(query, k).items == engine.top_k(query, k).items

        # One random update batch: while corrections are pending both
        # sides switch to the exact corrected path and must agree
        # bitwise.  (A batch whose delta cancels — e.g. re-inserting an
        # existing edge at its current weight — legitimately leaves
        # pending rank 0; both sides then stay on the clean path, and
        # the planner re-shards because the serial moved.)
        inserts = [
            (int(rng.integers(n)), int(rng.integers(n)), float(rng.integers(1, 4)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        engine.apply_updates(inserts, [])
        pending = dyn.n_pending_columns > 0
        for query in queries:
            sharded = planner.top_k(query, 5)
            single = engine.top_k(query, 5)
            assert planner.last_plan.corrected == pending
            assert sharded.items == single.items

        # Compaction: the engine swaps in a fresh base index; the
        # planner must notice (update_serial moved, pending rank zero),
        # re-shard, and keep matching the engine's clean path.  The
        # engine cache is cleared because its cached entries were
        # computed by corrected (Woodbury) arithmetic, while both clean
        # paths now recompute on the rebuilt factors.
        engine.rebuild()
        engine.clear_cache()
        for query in queries:
            sharded = planner.top_k(query, 5)
            single = engine.top_k(query, 5)
            assert not planner.last_plan.corrected
            assert sharded.items == single.items
        # Exactly one re-shard across the whole stream: the serial moved
        # once (the update batch); compaction itself never moves it.
        assert planner.stats.reshards == 1
