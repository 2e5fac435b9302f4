"""In-memory span recorder and the wrappers that install it around tmsim.

Only the traced run (``--trace 1``) installs these wrappers; the untraced
run calls tmsim untouched.  Each public function is replaced by a wrapper
in every module namespace where a caller looks it up (``tmsim.cli.train``
as well as ``tmsim.pipeline.train``), so the span sits at the boundary
between the caller's layer and the callee's.

A span records a name, start, end, parent span and request id.  A new
request id starts at every span opened with ``root=True``: one per
training, pattern or solve.  Spans stay in memory and are written out
once, when the run ends.

Wrappers pickle as the original function, so work that a later version of
tmsim sends to a worker process runs there untraced and shows up as
waiting inside the caller's span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


def resolve(module: str, name: str):
    """Look up a function by module path; used to unpickle wrappers."""
    return getattr(importlib.import_module(module), name)


class Tracer:
    """Span stack, finished spans and plain counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request, attrs)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, int]] = []  # (span id, request id)
        self._next_id = 1
        self._next_request = 1

    def open(self, root: bool) -> tuple[int, int | None, int, float]:
        span_id = self._next_id
        self._next_id += 1
        parent, request = self._stack[-1] if self._stack else (None, 0)
        if root:
            request = self._next_request
            self._next_request += 1
        self._stack.append((span_id, request))
        return span_id, parent, request, time.perf_counter()

    def close(self, opened, name: str, attrs: dict | None) -> None:
        end = time.perf_counter()
        span_id, parent, request, start = opened
        self._stack.pop()
        self.spans.append((span_id, name, start, end, parent, request, attrs))

    def span(self, name: str, root: bool = False):
        """Context manager recording a span opened by the benchmark itself."""
        return _SpanScope(self, name, root)

    def mark(self) -> int:
        """Position in the span list, to select the spans of one phase."""
        return len(self.spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, name, start, end, parent, request, attrs in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "request": request}
                if attrs:
                    record["attrs"] = attrs
                fh.write(json.dumps(record) + "\n")


class _SpanScope:
    def __init__(self, tracer: Tracer, name: str, root: bool) -> None:
        self.tracer, self.name, self.root = tracer, name, root

    def __enter__(self):
        self.opened = self.tracer.open(self.root)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.opened, self.name, None)


class _Wrapper:
    """Callable stand-in for one tmsim function.

    ``attrs(args, kwargs, result)`` returns the work counts stored on the
    span (items, steps, array size); ``count_only`` wrappers skip the span
    and only count calls, for functions called thousands of times per
    operation.
    """

    def __init__(self, tracer: Tracer, fn, name: str, root: bool, attrs, count_only: bool) -> None:
        self.tracer, self.fn, self.name = tracer, fn, name
        self.root, self.attrs, self.count_only = root, attrs, count_only
        self.__wrapped__ = fn
        self.__doc__ = fn.__doc__

    def __call__(self, *args, **kwargs):
        if self.count_only:
            self.tracer.counts[self.name] += 1
            return self.fn(*args, **kwargs)
        opened = self.tracer.open(self.root)
        result = None
        try:
            result = self.fn(*args, **kwargs)
            return result
        finally:
            self.tracer.close(opened, self.name, self._attrs(args, kwargs, result))

    def _attrs(self, args, kwargs, result) -> dict | None:
        if self.attrs is None:
            return None
        try:
            return self.attrs(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            # a changed tmsim signature loses the work count, not the run
            return None

    def __reduce__(self):
        return resolve, (self.fn.__module__, self.fn.__name__)


def install(tracer: Tracer, targets) -> list[tuple[object, str, object]]:
    """Replace each ``(span name, [(module, attr), ...], options)`` target.

    Every namespace that holds one function object receives the same
    wrapper.  A name that a later version of tmsim no longer has is
    skipped, so its layer metrics read zero instead of breaking the run.
    Returns the undo list for ``uninstall``.
    """
    undo = []
    for name, places, options in targets:
        wrappers: dict[int, _Wrapper] = {}
        for module_name, attr in places:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = _Wrapper(
                    tracer, original, name, options.get("root", False),
                    options.get("attrs"), options.get("count_only", False))
            undo.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])
    return undo


def uninstall(undo) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, busy seconds, self seconds and summed attrs.

    A span whose attrs carry a ``bucket`` string is filed under
    ``name.bucket`` (``crossbar.solve_nodal.16x16``).  Self time is the
    span's duration minus the time its children cover.  Calls run on one
    thread, so children never overlap and their durations add up to the
    covered time.
    """
    child_time: defaultdict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for span_id, name, start, end, _, _, attrs in spans:
        if attrs and "bucket" in attrs:
            name = f"{name}.{attrs['bucket']}"
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - child_time.get(span_id, 0.0)
        for key, value in (attrs or {}).items():
            if isinstance(value, (int, float)):
                entry[key] = entry.get(key, 0) + value
    return out
