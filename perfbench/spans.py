"""In-memory span recorder that times calls into dlmprune from outside.

A span is one call: its name, start, end, the span open when it began (its
parent) and the decode it belongs to. Spans are appended to one flat
``array('d')`` (five numbers each) so that hundreds of thousands of them stay
cheap to record and to keep; ``table()`` turns them into numpy columns at the
end of a run. Self time is a span's duration minus its children's.

``install()`` replaces module attributes with timing wrappers and
``uninstall()`` puts the originals back, so untraced rounds run the program
exactly as shipped.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

FIELDS = 5  # name id, start, end, parent index, decode id


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._rec = array("d")
        self._open: list[int] = []   # indices of spans not yet closed
        self._open_names: list[int] = []
        self.decode = -1             # decode id stamped on new spans; -1 outside decodes
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self._rec) // FIELDS
        parent = self._open[-1] if self._open else -1
        self._rec.extend((nid, time.perf_counter(), 0.0, parent, self.decode))
        self._open.append(idx)
        self._open_names.append(nid)
        return idx

    def _end(self, idx: int) -> None:
        self._rec[idx * FIELDS + 2] = time.perf_counter()
        self._open.pop()
        self._open_names.pop()

    def wrap(self, fn, name: str, hook=None):
        """Timing wrapper for ``fn``. A call made while a span of the same name
        is open (``select_top`` calling ``keep_top_n``) joins that span.
        ``hook(args, result)`` may record observations of the call."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if self._open_names and self._open_names[-1] == nid:
                return fn(*args, **kwargs)
            idx = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Patch each ``(module, attribute, span name, hook)`` in ``targets``."""
        for module, attr, name, hook in targets:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def table(self) -> dict:
        """Columns of every closed span plus each span's self time."""
        rec = np.frombuffer(self._rec, dtype=np.float64).reshape(-1, FIELDS)
        parent = rec[:, 3].astype(np.int64)
        dur = rec[:, 2] - rec[:, 1]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(rec))
        return {
            "name": rec[:, 0].astype(np.int64),
            "start": rec[:, 1],
            "end": rec[:, 2],
            "parent": parent,
            "decode": rec[:, 4].astype(np.int64),
            "dur": dur,
            "self": dur - child,
        }
