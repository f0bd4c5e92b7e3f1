"""In-memory spans recorded by the benchmark around its calls into the library.

A span is (span id, name, start, end, parent id, item id), with times read
from the clock the tracer is given.  Spans stay in memory during the run and are written
out once at the end; self time is a span's duration minus the part of its
interval covered by its direct children.
"""

from __future__ import annotations

import json
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []        # [span_id, name, start, end, parent_id, item_id]
        self._stack = []
        self.item_id = None

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, self.clock(), None, parent, self.item_id]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = self.clock()

    def self_times(self):
        """Map span id -> self time in seconds."""
        child_time = {}
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        return {sid: (end - start) - child_time.get(sid, 0.0)
                for sid, _, start, end, _, _ in self.spans}

    def by_name(self):
        """Map span name -> list of (duration, self time) in seconds."""
        selfs = self.self_times()
        out = {}
        for sid, name, start, end, _, _ in self.spans:
            out.setdefault(name, []).append((end - start, selfs[sid]))
        return out

    def write(self, path):
        selfs = self.self_times()
        rows = [{"id": sid, "name": name, "start": start, "end": end,
                 "self": selfs[sid], "parent": parent, "item": item}
                for sid, name, start, end, parent, item in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
