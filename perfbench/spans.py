"""In-memory spans for the traced run, written once as JSONL at the end.

A span has a ``name``, ``start`` and ``end`` (seconds on this process's
``perf_counter``), a ``parent`` span id and a ``trace`` id shared by
every span of one request.  The program's own spans (``repro.obs``
records: ``scheduler.query`` → ``worker.batch`` → ``kernel.scan``) are
folded in by :meth:`SpanRecorder.absorb_program`; they carry a wall
clock start and a duration, so they are re-based onto the same clock.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional


class SpanRecorder:
    """Collects spans in memory; nothing is written until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._next_id = 1
        self._next_trace = 1
        self._trace_of: Dict[int, int] = {}
        # perf_counter minus time.time(): re-bases wall-clock records.
        self._offset = time.perf_counter() - time.time()

    def new_trace(self) -> int:
        trace = self._next_trace
        self._next_trace += 1
        return trace

    def _allocate(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        trace: Optional[int] = None,
        span_id: Optional[int] = None,
        **tags,
    ) -> int:
        """Record one finished span; returns its id."""
        if span_id is None:
            span_id = self._allocate()
        if trace is None:
            trace = self._trace_of.get(parent) if parent is not None else None
            trace = self.new_trace() if trace is None else trace
        self._trace_of[span_id] = trace
        self.spans.append(
            {
                "id": span_id,
                "trace": trace,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "tags": tags,
            }
        )
        return span_id

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, **tags):
        """Time the ``with`` body as one span; yields its id for children.

        Children recorded inside the body name the yielded id as their
        parent and inherit its trace.
        """
        span_id = self._allocate()
        trace = self._trace_of.get(parent) if parent is not None else None
        self._trace_of[span_id] = self.new_trace() if trace is None else trace
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.add(
                name, start, time.perf_counter(), parent=parent,
                trace=self._trace_of[span_id], span_id=span_id, **tags,
            )

    def absorb_program(
        self, records: Iterable[Dict[str, object]], namespace: str
    ) -> None:
        """Fold ``repro.obs.Tracer`` records into this recorder.

        Program span and trace ids are kept distinct per ``namespace``
        (one per traced process), and parents are resolved within it.
        """
        records = list(records)
        ids: Dict[object, int] = {}
        traces: Dict[object, int] = {}
        for record in records:
            ids[(record["trace_id"], record["span_id"])] = self._allocate()
        for record in records:
            trace = traces.setdefault(record["trace_id"], self.new_trace())
            start = float(record["start"]) + self._offset
            parent = ids.get((record["trace_id"], record.get("parent_id")))
            tags = dict(record.get("tags") or {})
            tags["program"] = namespace
            self.spans.append(
                {
                    "id": ids[(record["trace_id"], record["span_id"])],
                    "trace": trace,
                    "parent": parent,
                    "name": record["name"],
                    "start": start,
                    "end": start + float(record["seconds"] or 0.0),
                    "tags": tags,
                }
            )

    def write(self, path: str) -> int:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
        return len(self.spans)


def read_spans(path: str) -> List[Dict[str, object]]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]
