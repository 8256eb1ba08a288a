"""In-memory spans recorded around the program's public callables.

A :class:`Recorder` wraps callables where their callers look them up
(a module global or a class attribute) and records one span per call:
id, parent, name, start, end, thread and an optional tag (a project
name or the benchmark's request index).  Spans stay in memory and are
written as JSON lines when the run ends.

Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so
spans written by several processes of one run share a timeline.  Ids
are ``"<pid>.<n>"`` strings, unique across those processes.  A parent
may live on another thread (see :meth:`Recorder.bind`) or in another
process (a client span id sent in a request header).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager


class Recorder:
    """Collects spans; safe to use from many threads."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        """The innermost open span of this thread, else its adopted parent."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "parent", None)

    @contextmanager
    def span(self, name: str, parent: str | None = None, tag=None, **attrs):
        sid = f"{self._pid}.{next(self._ids)}"
        if parent is None:
            parent = self.current()
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": sid, "parent": parent, "name": name,
                "start": start, "end": end,
                "thread": f"{self._pid}:{threading.get_ident()}",
            }
            if tag is not None:
                record["tag"] = tag
            if attrs:
                record.update(attrs)
            self.spans.append(record)

    def wrap(self, name: str, fn, attrs_of=None):
        """*fn* with a span around every call; *attrs_of(args)* adds fields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of is not None else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    def bind(self, fn, parent: str | None):
        """*fn* adopting *parent* for spans it opens on another thread."""

        def bound(*args, **kwargs):
            self._local.parent = parent
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.parent = None

        return bound

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def resolve(target: str):
    """``"pkg.module:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def patch(target: str, make_replacement) -> bool:
    """Replace *target* with ``make_replacement(original)``.

    Returns False when the target does not exist (a later version of
    the program may have moved it); the caller reports it as absent.
    """
    try:
        owner, attr = resolve(target)
    except (ImportError, AttributeError):
        return False
    original = (
        owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    )
    if original is None or isinstance(original, (staticmethod, classmethod, property)):
        return False
    setattr(owner, attr, make_replacement(original))
    return True


def install(recorder: Recorder, table) -> list[str]:
    """Wrap every ``(span name, target[, attrs_of])`` row; return absent targets."""
    absent = []
    for row in table:
        name, target = row[0], row[1]
        attrs_of = row[2] if len(row) > 2 else None
        if not patch(target, lambda fn, n=name, a=attrs_of: recorder.wrap(n, fn, a)):
            absent.append(target)
    return absent
