"""Span recording for traced runs, installed from outside the program.

A span is ``[name, start, end, parent]`` (``perf_counter`` seconds; the
parent is an index into the same record, ``-1`` for the root).  One
*record* holds the spans of one request (or one sweep job) plus a few
byte counters; records stay in memory and are written out when the
process ends.

Spans come only from wrappers this module puts around existing callables
(:meth:`Recorder.wrap`); the program under test carries no tracing code.
A wrapper called outside a record (a background thread, set-up work) is a
plain pass-through.  Work handed to the server's session pool keeps its
request's record: :meth:`Recorder.wrap_pool` carries the context across
the thread hop and records the hop itself as ``pool.queue_wait``.

This module imports nothing from the rest of the benchmark, so the server
bootstrap can load it alone.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object, bool]] = []

    # -- context -----------------------------------------------------------
    def _context(self) -> Optional[Tuple[dict, List[int]]]:
        return getattr(self._local, "context", None)

    @contextmanager
    def record(self, root: str, **tags) -> Iterator[dict]:
        """Open a record whose root span is *root* on this thread."""
        record = {"spans": [], "counters": {}, **tags}
        self.records.append(record)
        self._local.context = (record, [])
        try:
            with self.span(root):
                yield record
        finally:
            self._local.context = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        context = self._context()
        if context is None:
            yield
            return
        record, stack = context
        spans = record["spans"]
        index = len(spans)
        spans.append([name, time.perf_counter(), None,
                      stack[-1] if stack else -1])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            spans[index][2] = time.perf_counter()

    def count(self, key: str, value: float) -> None:
        """Add *value* to a counter of the current record (if any)."""
        context = self._context()
        if context is not None:
            counters = context[0]["counters"]
            counters[key] = counters.get(key, 0) + value

    def current(self) -> Optional[dict]:
        context = self._context()
        return None if context is None else context[0]

    # -- installing wrappers ----------------------------------------------
    def replace(self, owner: object, attr: str, value: object) -> None:
        owned = attr in getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, getattr(owner, attr), owned))
        setattr(owner, attr, value)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called *name*."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if recorder._context() is None:
                return original(*args, **kwargs)
            with recorder.span(name):
                return original(*args, **kwargs)

        self.replace(owner, attr, timed)

    def wrap_root(self, owner: object, attr: str, name: str,
                  tags) -> None:
        """Make ``owner.attr`` open a record; ``tags(*args)`` names it."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def rooted(*args, **kwargs):
            with recorder.record(name, **tags(*args)):
                return original(*args, **kwargs)

        self.replace(owner, attr, rooted)

    def wrap_pool(self, pool_class: type) -> None:
        """Carry the request context through ``pool_class.submit``.

        The time from ``submit`` to the task starting on a pool thread is
        recorded as ``pool.queue_wait``; the task's own spans become
        children of the span that submitted it."""
        original = pool_class.submit
        recorder = self

        @functools.wraps(original)
        def submit(pool, key, fn, *args, **kwargs):
            context = recorder._context()
            if context is None:
                return original(pool, key, fn, *args, **kwargs)
            record, stack = context
            parent = stack[-1] if stack else -1
            queued = time.perf_counter()

            def task(*task_args, **task_kwargs):
                record["spans"].append(["pool.queue_wait", queued,
                                        time.perf_counter(), parent])
                recorder._local.context = (record, [parent])
                try:
                    return fn(*task_args, **task_kwargs)
                finally:
                    recorder._local.context = None

            return original(pool, key, task, *args, **kwargs)

        self.replace(pool_class, "submit", submit)

    def gzip_shim(self, name: str, count_prefix: Optional[str] = None):
        """A stand-in for the ``gzip`` module whose calls are timed.

        ``compress`` and ``decompress`` both record *name*; with
        *count_prefix*, ``compress`` also counts its input and output
        bytes (``<prefix>_in`` / ``<prefix>_out``)."""
        recorder = self

        class GzipShim:
            @staticmethod
            def compress(data, compresslevel=9):
                with recorder.span(name):
                    out = gzip.compress(data, compresslevel=compresslevel)
                if count_prefix:
                    recorder.count(count_prefix + "_in", len(data))
                    recorder.count(count_prefix + "_out", len(out))
                return out

            @staticmethod
            def decompress(data):
                with recorder.span(name):
                    return gzip.decompress(data)

        return GzipShim()

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._undo:
            owner, attr, original, owned = self._undo.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.records, handle)


# -- analysis ----------------------------------------------------------------
def durations(record: dict) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(total, self)`` seconds per span name of one record.

    A span's self time is its duration minus the time its child spans
    cover; children of one span never overlap (they run one after another
    on one thread, or on a pool thread while the parent waits)."""
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - child_time[index])
    return total, own
