"""Common interface for all proximity search methods.

:class:`ProximityBaseline` fixes the contract the evaluation harness
relies on: a ``build()`` precomputation step, a ``top_k`` query returning
:class:`~repro.core.topk.TopKResult`, and (for full-vector methods) a
``proximity_vector`` accessor.  K-dash itself satisfies the same duck
type without inheriting, so the harness treats everything uniformly.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..core.topk import TopKResult, rank_items
from ..exceptions import IndexNotBuiltError
from ..graph.digraph import DiGraph
from ..graph.matrices import column_normalized_adjacency
from ..validation import check_k, check_node_id, check_restart_probability


class ProximityBaseline(abc.ABC):
    """Base class for full-vector proximity methods.

    Subclasses implement :meth:`_build` (precomputation over the cached
    transition matrix) and :meth:`_proximity_vector` (approximate or
    exact proximities for one query).  Top-k extraction, padding and
    result assembly are shared here.
    """

    #: Human-readable method name used in experiment tables.
    method_name: str = "baseline"

    def __init__(self, graph: DiGraph, c: float = 0.95) -> None:
        self.graph = graph
        self.c = check_restart_probability(c)
        self._adjacency: Optional[sp.csc_matrix] = None
        self._built = False

    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> sp.csc_matrix:
        """The (cached) column-normalised transition matrix."""
        if self._adjacency is None:
            self._adjacency = column_normalized_adjacency(self.graph)
        return self._adjacency

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._built

    def build(self) -> "ProximityBaseline":
        """Run the method's precomputation; returns ``self``."""
        self._build()
        self._built = True
        return self

    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError(
                f"{type(self).__name__} not built; call .build() first"
            )

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _build(self) -> None:
        """Method-specific precomputation."""

    @abc.abstractmethod
    def _proximity_vector(self, query: int) -> np.ndarray:
        """Method-specific (possibly approximate) proximity vector."""

    def error_estimate(self) -> float:
        """A-priori per-entry error estimate of the proximity vector.

        Exact (full-vector deterministic) methods return 0.0; stochastic
        estimators override this with a standard-error-style figure.  The
        value is surfaced on every :class:`TopKResult` as ``error_bound``.
        """
        return 0.0

    # ------------------------------------------------------------------
    def proximity_vector(self, query: int) -> np.ndarray:
        """Proximities of all nodes w.r.t. ``query`` (method-specific)."""
        self._require_built()
        query = check_node_id(query, self.graph.n_nodes, "query")
        return self._proximity_vector(query)

    def top_k(self, query: int, k: int = 5) -> TopKResult:
        """Top-k extraction from the method's proximity vector.

        Full-vector methods evaluate every node, so ``n_computed`` equals
        ``n`` — the cost model behind Theorem 3's O(n^2) bound.
        """
        self._require_built()
        n = self.graph.n_nodes
        query = check_node_id(query, n, "query")
        k = check_k(k)
        p = self._proximity_vector(query)
        pairs = [(int(u), float(p[u])) for u in range(n)]
        return TopKResult(
            query=query,
            k=k,
            items=rank_items(pairs, min(k, n)),
            n_visited=n,
            n_computed=n,
            n_pruned=0,
            terminated_early=False,
            padded=False,
            error_bound=float(self.error_estimate()),
        )
