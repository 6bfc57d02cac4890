"""In-memory span tracer that wraps flintq's public functions from outside.

``Tracer.patch`` replaces a function in every module namespace that holds
it, so calls are caught where callers look them up
(``cli.plan_mixed_precision``, ``selector.select_type``, ``flint.decode_int``
as seen from ``pe``, ...).  ``uninstall`` restores the originals.

Each span records name, start, end, parent span and run id (one run id per
benchmark operation), plus an optional tag (numeric type name) and size
(elements, bytes, ...).  Spans are kept in flat arrays and
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.tags: list[str] = []
        self._ids: dict[tuple[str, str], int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.tag = array("i")
        self.size = array("q")
        self.start = array("q")
        self.end = array("q")
        self.run_id = -1
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._list_patches: list[tuple[list, int, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, table: list[str], kind: str, value: str) -> int:
        key = (kind, value)
        if key not in self._ids:
            self._ids[key] = len(table)
            table.append(value)
        return self._ids[key]

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id: int, tag_id: int = -1, size: int = 0) -> int:
        stack = self._stack()
        # A worker thread's first span hangs under the span the main thread
        # is blocked in (the pool's owner).
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        with self._lock:
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.run.append(self.run_id)
            self.tag.append(tag_id)
            self.size.append(size)
            self.end.append(0)
            self.start.append(time.perf_counter_ns())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack().pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside one span (for calls the benchmark makes itself)."""
        idx = self.open(self._intern(self.names, "n", name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- patching ----------------------------------------------------------

    def wrap(self, name: str, fn, tag=None, size=None, size_after=None):
        """Span wrapper around ``fn``.  ``tag(args, kwargs)`` returns a type
        name, ``size(args, kwargs)`` a count known before the call and
        ``size_after(args, kwargs)`` one known only after it."""
        name_id = self._intern(self.names, "n", name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            tag_id = self._intern(self.tags, "t", tag(args, kwargs)) if tag else -1
            idx = self.open(name_id, tag_id, size(args, kwargs) if size else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if size_after:
                    self.size[idx] = size_after(args, kwargs)

        return traced

    def patch(self, modules, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` and every alias of it in ``modules``."""
        original = getattr(owner, attr)
        targets = [(owner, attr)] + [
            (m, a) for m in modules for a, v in vars(m).items() if v is original and m is not owner
        ]
        for obj, a in targets:
            self._patches.append((obj, a, original))
            setattr(obj, a, wrapper)

    def patch_list(self, items: list, wrapper_for) -> None:
        for i, fn in enumerate(items):
            self._list_patches.append((items, i, fn))
            items[i] = wrapper_for(fn)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        for items, i, fn in reversed(self._list_patches):
            items[i] = fn
        self._patches.clear()
        self._list_patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Views on the span columns; valid while no span is recorded."""
        return {k: np.frombuffer(getattr(self, k), dtype=getattr(self, k).typecode)
                for k in ("name", "parent", "run", "tag", "size", "start", "end")}

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), tags=np.array(self.tags),
                            **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration minus the part of the span its children cover (ns).

    Children that run in parallel threads may overlap; their union is
    subtracted, not their sum.
    """
    dur = end - start
    has_parent = np.flatnonzero(parent >= 0)
    order = has_parent[np.lexsort((start[has_parent], parent[has_parent]))]
    p = parent[order]
    same = p[1:] == p[:-1]
    overlap = same & (start[order][1:] < end[order][:-1])
    covered = np.bincount(p, weights=dur[order], minlength=len(dur))
    for par in np.unique(p[1:][overlap]):
        kids = order[p == par]
        lo, hi = start[par], end[par]
        total, cur_lo, cur_hi = 0, None, None
        for s, e in sorted(zip(np.maximum(start[kids], lo), np.minimum(end[kids], hi))):
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        total += cur_hi - cur_lo
        covered[par] = total
    return dur - covered
