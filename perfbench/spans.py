"""In-memory span recorder for the traced benchmark pass.

A span is ``[name, start, end, parent, check]``: a layer name, two
``time.perf_counter`` readings, the index of the enclosing span (None for a
check's root span) and the id of the check it belongs to.  Spans stay in
memory while the pass runs and are written out once at the end.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.check = None
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.check])
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._open.pop()

        return traced

    def close_open(self) -> None:
        """After a time-limit interrupt, end the current check's spans that it
        left open (it can land inside the recorder's own bookkeeping), so the
        next check starts at the root."""
        now = time.perf_counter()
        for span in reversed(self.spans):
            if span[4] != self.check:
                break
            if span[2] == 0.0:
                span[2] = now
        self._open.clear()

    def self_times(self, scale: dict) -> dict[str, list[float]]:
        """Per layer name, the self time of each span: its duration minus the
        durations of its direct children, times ``scale`` of its check."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _, check), covered in zip(self.spans, child):
            out.setdefault(name, []).append((end - start - covered) * scale[check])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
