"""Index build profile and the triangular-inverse regression gate.

Builds K-dash on the serving smoke graph (scale-free, n=2000, m=8000,
c=0.95, the graph of ``bench_kernel.py``) and reports the
:class:`~repro.core.kdash.BuildReport` phases and the inverse sizes.

Order of checks, exactness first (the ``bench_kernel.py`` pattern):

1. **Bitwise exactness.**  ``L^-1`` and ``U^-1`` from
   :func:`repro.lu.inverse.triangular_inverses` must equal the
   reach-based reference (:mod:`repro.sparse.triangular`) in structure
   and in every float64 bit.  A mismatch fails the bench outright.
2. **Sizes.**  ``nnz(L^-1)`` and ``nnz(U^-1)`` are machine-independent
   and gated on exact equality with the committed values.
3. **Inverse share.**  ``inverse_seconds / total_seconds`` of the best
   of three builds.  A share is a ratio of two timings in one process,
   so it travels across machines far better than seconds do.  The gate
   fails when it exceeds the committed share plus a tolerance derived
   from repeated runs (``--runs``): three times the spread of those
   runs, and never under ``MIN_TOLERANCE``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_build.py                  # table
    PYTHONPATH=src python benchmarks/bench_build.py --runs 10 --output BENCH_build.json
    PYTHONPATH=src python benchmarks/bench_build.py --check BENCH_build.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import numpy as np

from repro.core import KDash
from repro.graph import scale_free_digraph
from repro.graph.matrices import column_normalized_adjacency, rwr_system_matrix
from repro.lu.inverse import triangular_inverses
from repro.lu.scipy_backend import superlu_lu
from repro.sparse import CSCMatrix
from repro.sparse.triangular import sparse_lower_inverse, sparse_upper_inverse

# The bench_kernel smoke graph, restated (importing the sibling module
# would depend on the invocation directory).
N_NODES = 2000
N_EDGES = 8000
GRAPH_SEED = 5
C = 0.95

BUILDS_PER_RUN = 3  # each share is the best of this many builds
SPREAD_FACTOR = 3.0
MIN_TOLERANCE = 0.05


def _same_bits(got, ref) -> bool:
    return (
        np.array_equal(got.indptr, ref.indptr)
        and np.array_equal(got.indices, ref.indices)
        and np.array_equal(got.data.view(np.int64), ref.data.view(np.int64))
    )


def check_exact(graph) -> dict:
    """Invert the factors of the built index's ``W`` both ways; exit on
    any bit of difference.  Returns the inverse sizes."""
    index = KDash(graph, c=C).build()
    w = rwr_system_matrix(
        index._perm.permute_matrix(column_normalized_adjacency(graph)), C
    )
    ell, u = superlu_lu(w)
    l_inv, u_inv = triangular_inverses(ell, u)
    l_ref = sparse_lower_inverse(CSCMatrix.from_scipy(ell), unit_diagonal=True)
    u_ref = sparse_upper_inverse(CSCMatrix.from_scipy(u))
    u_inv_csc = CSCMatrix.from_scipy(u_inv.to_scipy())
    if not (_same_bits(l_inv, l_ref) and _same_bits(u_inv_csc, u_ref)):
        raise SystemExit(
            "triangular_inverses diverged from the reach reference — "
            "refusing to report build timings"
        )
    if not (_same_bits(index._l_inv, l_inv) and _same_bits(index._u_inv, u_inv)):
        raise SystemExit("the built index does not hold the checked inverses")
    return {"nnz_l_inv": l_inv.nnz, "nnz_u_inv": u_inv.nnz}


def best_share(graph) -> dict:
    """The build with the smallest inverse share among BUILDS_PER_RUN."""
    best = None
    for _ in range(BUILDS_PER_RUN):
        report = KDash(graph, c=C).build().build_report
        share = report.inverse_seconds / report.total_seconds
        if best is None or share < best["inverse_share"]:
            best = {
                "inverse_share": round(share, 4),
                "seconds": {
                    "reorder": round(report.reorder_seconds, 4),
                    "lu": round(report.lu_seconds, 4),
                    "inverse": round(report.inverse_seconds, 4),
                    "total": round(report.total_seconds, 4),
                },
            }
    return best


def run_bench(runs: int = 1) -> dict:
    graph = scale_free_digraph(N_NODES, N_EDGES, seed=GRAPH_SEED)
    sizes = check_exact(graph)
    measured = [best_share(graph) for _ in range(runs)]
    shares = [m["inverse_share"] for m in measured]
    report = {
        "bench": "build",
        "graph": {
            "generator": "scale_free_digraph",
            "n_nodes": N_NODES,
            "n_edges": N_EDGES,
            "seed": GRAPH_SEED,
            "c": C,
        },
        "bitwise_equal_to_reach": True,
        **sizes,
        "builds_per_run": BUILDS_PER_RUN,
        "inverse_share": round(statistics.median(shares), 4),
        "share_runs": shares,
        "seconds": min(measured, key=lambda m: m["seconds"]["total"])["seconds"],
    }
    if runs > 1:
        spread = max(shares) - min(shares)
        report["tolerance"] = round(max(MIN_TOLERANCE, SPREAD_FACTOR * spread), 4)
    return report


def print_report(report: dict) -> None:
    g = report["graph"]
    print(
        f"build bench — scale-free n={g['n_nodes']} m={g['n_edges']} c={g['c']}: "
        f"inverses bitwise equal to the reach reference"
    )
    print(f"  nnz(L^-1) {report['nnz_l_inv']}, nnz(U^-1) {report['nnz_u_inv']}")
    secs = report["seconds"]
    print(
        "  fastest build: "
        + ", ".join(f"{phase} {value:.3f}s" for phase, value in secs.items())
    )
    print(
        f"  inverse share (best of {report['builds_per_run']}): "
        f"median {report['inverse_share']:.3f} over runs {report['share_runs']}"
    )
    if "tolerance" in report:
        print(f"  tolerance {report['tolerance']:.3f}")


def check_against(report: dict, committed_path: Path) -> int:
    committed = json.loads(committed_path.read_text())
    failures = []
    for key in ("nnz_l_inv", "nnz_u_inv"):
        if report[key] != committed[key]:
            failures.append(f"{key} is {report[key]}, committed {committed[key]}")
    ceiling = committed["inverse_share"] + committed["tolerance"]
    share = report["inverse_share"]
    status = "ok" if share <= ceiling else "REGRESSION"
    print(
        f"  gate inverse share: committed {committed['inverse_share']:.3f} "
        f"+ {committed['tolerance']:.3f}, run {share:.3f} — {status}"
    )
    if share > ceiling:
        failures.append(f"inverse share {share:.3f} exceeds {ceiling:.3f}")
    if failures:
        print("build bench regression gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("build bench regression gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, help="write the report JSON")
    parser.add_argument(
        "--check",
        type=Path,
        help="compare this run to a committed BENCH_build.json and exit 1 "
        "on a size change or an inverse share above its ceiling",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=1,
        help="measured runs (each the best of three builds); more than one "
        "also derives the gate tolerance from their spread",
    )
    args = parser.parse_args(argv)

    report = run_bench(runs=args.runs)
    print_report(report)
    if args.output:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.check:
        return check_against(report, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
