"""Span recorder that wraps lyaq functions from outside the package.

A span is (name, start, end, parent). Spans are kept in flat in-memory
arrays while the traced pass runs and are aggregated and written to disk
only when it ends. A span's self time is its duration minus the durations
of its direct children; because spans nest strictly (one thread, stack
discipline), the self times of all spans add up to the durations of the
root spans.

Each hook names the place where callers look a function up, e.g.
``lyaq.env:sample_arrivals`` (env imported the name from traffic) rather
than ``lyaq.traffic:sample_arrivals``; a wrapper installed anywhere else
would never fire. A hook whose target no longer exists is reported as
missing and skipped.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from contextlib import contextmanager


def resolve(site: str):
    """Split ``module:Owner.attr`` into (owner object, attribute name, raw
    attribute as stored on the owner). Raises LookupError when any part of
    the path no longer exists."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{site}: {exc}") from None
    *owners, attr = path.split(".")
    for part in owners:
        if not hasattr(owner, part):
            raise LookupError(f"{site}: no {part!r}")
        owner = getattr(owner, part)
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        raise LookupError(f"{site}: no {attr!r}") from None
    return owner, attr, raw


@contextmanager
def patched(site: str, make_wrapper):
    """Replace the function at `site` by make_wrapper(function) for the
    duration of the block; classmethods and staticmethods keep their kind."""
    owner, attr, raw = resolve(site)
    if isinstance(raw, (classmethod, staticmethod)):
        replacement = type(raw)(make_wrapper(raw.__func__))
    else:
        replacement = make_wrapper(raw)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, raw)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrapper(self, name: str, split=None):
        """Factory for `patched`: the returned function records one span per
        call, named `name` or `name.<split(args)>`."""
        clock, stack = self.clock, self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        fixed = None if split else self._id(name)

        def make(fn):
            def traced(*args, **kwargs):
                idx = len(start)
                name_id.append(fixed if split is None
                               else self._id(f"{name}.{split(args)}"))
                parent.append(stack[-1] if stack else -1)
                start.append(0.0)
                end.append(0.0)
                stack.append(idx)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    start[idx] = t0
                    end[idx] = t1
            traced.__wrapped__ = fn
            return traced
        return make

    def aggregate(self) -> dict:
        """Per span name: calls, self_s and the inclusive durations; plus the
        total root duration, which the self times must add up to."""
        import numpy as np

        n = len(self.start)
        ids = np.frombuffer(self.name_id, dtype=np.int64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        dur = (np.frombuffer(self.end, dtype=np.float64, count=n)
               - np.frombuffer(self.start, dtype=np.float64, count=n))
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=self_time, minlength=k)
        order = np.argsort(ids, kind="stable")
        bounds = np.searchsorted(ids[order], np.arange(k + 1))
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "self_s": float(self_s[i]),
                         "durations": dur[order[bounds[i]:bounds[i + 1]]]}
        return {"spans": out, "root_s": float(dur[~nested].sum()),
                "self_total_s": float(self_time.sum())}

    def write(self, path) -> None:
        import numpy as np

        n = len(self.start)
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int64, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int64, count=n),
            start=np.frombuffer(self.start, dtype=np.float64, count=n),
            end=np.frombuffer(self.end, dtype=np.float64, count=n))


def self_check() -> list[str]:
    """Run a synthetic nested call under a scripted clock and check the
    self-time arithmetic; returns error messages (empty when sound)."""
    ticks = iter(float(t) for t in (0, 1, 3, 4, 7, 8, 9, 10))
    tracer = Tracer(clock=lambda: next(ticks))

    def inner(fail=False):
        if fail:
            raise ValueError("synthetic")

    inner = tracer.wrapper("inner")(inner)

    def outer():
        inner()
        inner()
        try:
            inner(fail=True)
        except ValueError:
            pass

    tracer.wrapper("outer")(outer)()
    agg = tracer.aggregate()
    # outer spans [0, 10]; its children span [1, 3], [4, 7] and [8, 9]
    expected = {"outer": (1, 4.0), "inner": (3, 6.0)}
    errors = []
    for name, want in expected.items():
        got = agg["spans"].get(name)
        got = got and (got["calls"], got["self_s"])
        if got != want:
            errors.append(f"tracer self-check: {name} gave {got}, expected {want}")
    if agg["root_s"] != 10.0 or agg["self_total_s"] != 10.0:
        errors.append(f"tracer self-check: root {agg['root_s']}, self total "
                      f"{agg['self_total_s']}, expected 10.0")
    return errors
