"""Scatter-gather top-k planning over a sharded index.

:class:`ScatterGatherPlanner` is the in-process realisation of the
shard-level pruning contract (the multi-process version lives in
:mod:`repro.serving.sharded` and follows exactly the same plan):

1. **home first** — scan the shard owning the query node; its members
   hold most of the proximity mass on a well-partitioned graph, so the
   running K-th proximity θ rises as fast as possible;
2. **descending bounds** — contract every other shard's
   :class:`~repro.core.sharded.ShardSummary` against the scattered seed
   column and visit survivors in descending bound order;
3. **skip below θ** — the first shard whose bound falls below the
   running θ certifies (bounds are sorted, θ is monotone) that *every*
   remaining shard is out, the Lemma 2 argument one level up.

Because per-shard scans compute the same float dot products as the
unified kernel and merge through the same canonical ``(proximity,
-node)`` heap discipline, the planner's answers are **bit-identical**
to :meth:`repro.core.kdash.KDash.top_k` / the single-index
:class:`~repro.query.engine.QueryEngine` — asserted across graph
families × partitioners × shard counts × k by
``tests/property/test_prop_sharded.py``.

Living graphs: hand the planner the same
:class:`~repro.core.dynamic.DynamicKDash` the writer mutates.  While
corrections are pending every query serves the exact Woodbury-corrected
vector (identical to the single engine's corrected path); once the
writer compacts (``rebuild()``), the planner notices the new base index
and re-derives its shards before the next clean query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, List, Optional

from ..core.sharded import ShardedIndex, canonical_heap, heap_items
from ..core.topk import TopKResult
from ..exceptions import InvalidParameterError
from ..validation import check_k, check_node_id
from .kernel import ScanResult, scan_to_topk


@dataclass(frozen=True)
class PlanStats:
    """Per-query plan accounting: how much work the bounds saved."""

    query: int
    k: int
    shards_visited: int
    shards_skipped: int
    nodes_checked: int
    nodes_computed: int
    corrected: bool = False

    @property
    def fan_out(self) -> int:
        """Shards that actually executed a scan for this query."""
        return self.shards_visited


@dataclass
class PlannerStats:
    """Lifetime aggregates across every planned query."""

    queries: int = 0
    corrected_queries: int = 0
    shards_visited: int = 0
    shards_skipped: int = 0
    nodes_checked: int = 0
    nodes_computed: int = 0
    reshards: int = 0
    _n_shards: int = field(default=0, repr=False)

    def record(self, plan: PlanStats, n_shards: int) -> None:
        self.queries += 1
        self.corrected_queries += int(plan.corrected)
        self.shards_visited += plan.shards_visited
        self.shards_skipped += plan.shards_skipped
        self.nodes_checked += plan.nodes_checked
        self.nodes_computed += plan.nodes_computed
        self._n_shards = n_shards

    @property
    def skip_rate(self) -> float:
        """Skipped share of the non-home shard visits a naive scatter
        would have made (0.0 until a multi-shard query ran)."""
        possible = self.queries * max(self._n_shards - 1, 0)
        return (self.shards_skipped / possible) if possible else 0.0

    @property
    def mean_fan_out(self) -> float:
        """Average shards scanned per query (1.0 = pure home-shard hits)."""
        return (self.shards_visited / self.queries) if self.queries else 0.0

    def as_dict(self) -> dict:
        return {
            "queries": self.queries,
            "corrected_queries": self.corrected_queries,
            "shards_visited": self.shards_visited,
            "shards_skipped": self.shards_skipped,
            "skip_rate": self.skip_rate,
            "mean_fan_out": self.mean_fan_out,
            "nodes_checked": self.nodes_checked,
            "nodes_computed": self.nodes_computed,
            "reshards": self.reshards,
        }


class ScatterGatherPlanner:
    """Serve exact top-k queries from a :class:`ShardedIndex`.

    Parameters
    ----------
    sharded:
        The sharded index (from
        :meth:`~repro.core.sharded.ShardedIndex.from_index` or
        :func:`~repro.core.index_io.load_sharded_index` — every shard
        payload must be loaded; manifest-only loads serve workers, not
        planners).
    dynamic:
        Optional :class:`~repro.core.dynamic.DynamicKDash` shared with
        the writer.  Pending corrections route queries through the exact
        corrected path; a compaction triggers an automatic re-shard.

    Examples
    --------
    >>> from repro.core import KDash
    >>> from repro.core.sharded import ShardedIndex
    >>> from repro.graph import star_graph
    >>> index = KDash(star_graph(6), c=0.9).build()
    >>> planner = ScatterGatherPlanner(
    ...     ShardedIndex.from_index(index, 3, partitioner="range"))
    >>> planner.top_k(0, 3).items == index.top_k(0, 3).items
    True
    """

    def __init__(
        self,
        sharded: ShardedIndex,
        dynamic=None,
        backend=None,
        registry=None,
    ) -> None:
        for shard_id, payload in enumerate(sharded.shards):
            if payload is None:
                raise InvalidParameterError(
                    f"shard {shard_id} has no payload: the planner needs "
                    "every shard loaded (pass only= loads to shard workers "
                    "instead)"
                )
        # Resolve the kernel backend once (name, object, or the
        # REPRO_KERNEL_BACKEND environment default); every per-shard
        # scan of this planner goes through it.  All backends are
        # bit-identical — see repro.query.backends.
        from .backends import get_backend

        from ..obs.metrics import NULL_REGISTRY

        self._backend = get_backend(backend)
        self._sharded = sharded
        self._dynamic = dynamic
        self._seen_serial = dynamic.update_serial if dynamic is not None else 0
        self._workspace = sharded.workspace()
        self.stats = PlannerStats()
        self.last_plan: Optional[PlanStats] = None
        #: Metrics sink (plan latency, fan-out/skip counters); the
        #: no-op singleton unless the caller opted into telemetry.
        self.metrics = NULL_REGISTRY if registry is None else registry
        self._metric_handles: Optional[dict] = None

    # ------------------------------------------------------------------
    @property
    def sharded(self) -> ShardedIndex:
        """The currently served sharded index (a new object after a
        post-compaction re-shard; hold the planner, not the index)."""
        return self._sharded

    def _sync(self) -> bool:
        """Observe the writer.  Returns True when corrections are pending.

        A compaction (``rebuild()``) leaves ``n_pending_columns == 0``
        but a moved ``update_serial`` — the base index the shards were
        sliced from is gone, so the shards are re-derived from the new
        one with the same ``(n_shards, partitioner, seed)`` spec.
        """
        dynamic = self._dynamic
        if dynamic is None:
            return False
        if (
            dynamic.update_serial != self._seen_serial
            and dynamic.n_pending_columns == 0
        ):
            n_shards, partitioner, seed = self._sharded.spec
            self._sharded = ShardedIndex.from_index(
                dynamic.base_index, n_shards, partitioner=partitioner, seed=seed
            )
            self._workspace = self._sharded.workspace()
            self._seen_serial = dynamic.update_serial
            self.stats.reshards += 1
        return dynamic.n_pending_columns > 0

    # ------------------------------------------------------------------
    def top_k(self, query: int, k: int = 5) -> TopKResult:
        """Exact top-k via home-first scatter-gather with shard skipping."""
        t0 = perf_counter()
        if self._sync():
            result = self._dynamic.top_k(query, k)
            plan = PlanStats(
                query=int(query),
                k=int(k),
                shards_visited=self._sharded.n_shards,
                shards_skipped=0,
                nodes_checked=result.n_visited,
                nodes_computed=result.n_computed,
                corrected=True,
            )
            self.last_plan = plan
            self.stats.record(plan, self._sharded.n_shards)
            if self.metrics.enabled:
                self._observe(plan, perf_counter() - t0)
            return result
        sharded = self._sharded  # _sync may have re-sharded
        n = sharded.n
        query = check_node_id(query, n, "query")
        k = check_k(k)

        y = self._workspace
        rows, vals = sharded.scatter_column(y, query)
        ymax = float(vals.max()) if vals.size else 0.0
        heap = canonical_heap(n, k)

        home = sharded.home_shard(query)
        checked, computed = self._backend.scan_shard(
            sharded.shard(home), sharded.c, y, ymax, heap
        )
        visited = 1

        bounds = sharded.shard_bounds(rows, vals)
        order = sorted(
            (s for s in range(sharded.n_shards) if s != home),
            key=lambda s: (-bounds[s], s),
        )
        skipped = 0
        for rank, shard_id in enumerate(order):
            if bounds[shard_id] < heap[0][0]:
                # Bounds are descending and θ is monotone: every later
                # shard is certified out as well.
                skipped = len(order) - rank
                break
            shard_checked, shard_computed = self._backend.scan_shard(
                sharded.shard(shard_id), sharded.c, y, ymax, heap
            )
            checked += shard_checked
            computed += shard_computed
            visited += 1
        sharded.clear_rows(y, rows)

        scan = ScanResult(
            items=heap_items(heap),
            n_visited=checked,
            n_computed=computed,
            n_pruned=n - computed,
            terminated_early=computed < n,
        )
        result = scan_to_topk(int(query), k, n, scan)
        plan = PlanStats(
            query=int(query),
            k=k,
            shards_visited=visited,
            shards_skipped=skipped,
            nodes_checked=checked,
            nodes_computed=computed,
        )
        self.last_plan = plan
        self.stats.record(plan, sharded.n_shards)
        if self.metrics.enabled:
            self._observe(plan, perf_counter() - t0)
        return result

    def _observe(self, plan: PlanStats, seconds: float) -> None:
        """Fold one plan into the metrics registry (handles cached once)."""
        handles = self._metric_handles
        if handles is None:
            metrics = self.metrics
            handles = self._metric_handles = {
                "seconds": metrics.histogram(
                    "repro_planner_seconds",
                    help="wall-clock seconds per planned query",
                ),
                "pruned": metrics.counter(
                    "repro_planner_queries_total",
                    help="planned queries",
                    labels={"path": "pruned"},
                ),
                "corrected": metrics.counter(
                    "repro_planner_queries_total",
                    help="planned queries",
                    labels={"path": "corrected"},
                ),
                "visited": metrics.counter(
                    "repro_planner_shards_visited_total", help="shards scanned"
                ),
                "skipped": metrics.counter(
                    "repro_planner_shards_skipped_total",
                    help="shards skipped by the cross-shard bound",
                ),
                "checked": metrics.counter(
                    "repro_planner_nodes_checked_total",
                    help="nodes bound-checked",
                ),
                "computed": metrics.counter(
                    "repro_planner_nodes_computed_total",
                    help="exact proximities computed",
                ),
            }
        handles["seconds"].observe(seconds)
        handles["corrected" if plan.corrected else "pruned"].inc()
        handles["visited"].inc(plan.shards_visited)
        handles["skipped"].inc(plan.shards_skipped)
        handles["checked"].inc(plan.nodes_checked)
        handles["computed"].inc(plan.nodes_computed)

    def top_k_many(self, queries: Iterable[int], k: int = 5) -> List[TopKResult]:
        """Plan a batch of queries; results in input order.

        Each query reuses the planner's single dense workspace; the
        answers equal per-query :meth:`top_k` calls exactly, which in
        turn equal the single-index engine's batch path.
        """
        return [self.top_k(int(q), k) for q in queries]

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the lifetime aggregates (keeps the shard state)."""
        self.stats = PlannerStats()
        self.last_plan = None
