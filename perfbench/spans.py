"""In-memory span recorder for the traced run.

Spans are recorded from outside the package: each traced entry point is
replaced, on every ``dyckperm`` module that binds it, by a wrapper that
records one span per call.  A span holds its name, its parent span, its
start, its duration and one integer tag (the instance size n where the
entry point has one).  Generators get one span each whose duration is the
time spent inside ``next()`` only, so the consumer's loop body is not
charged to them.  A span's self time is its duration minus the durations
of its children; single-threaded nesting keeps children disjoint.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from typing import Callable, Iterator, Optional

ROOT = -1
NO_TAG = -1

_clock = time.perf_counter


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.dur = array("d")
        self.tag = array("l")
        self.items: dict[int, int] = {}  # generator span -> items yielded
        self._stack = [ROOT]
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, tag: int) -> int:
        idx = len(self.dur)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(_clock())
        self.dur.append(0.0)
        self.tag.append(tag)
        return idx

    def wrap_call(self, fn: Callable, name: str,
                  tag_of: Optional[Callable] = None,
                  name_of: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        stack = self._stack
        open_span = self._open
        dur = self.dur
        start = self.start

        def traced(*args, **kwargs):
            span_nid = self.name_id(name_of(args, kwargs)) if name_of else nid
            idx = open_span(span_nid, tag_of(args, kwargs) if tag_of else NO_TAG)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                dur[idx] = _clock() - start[idx]
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn: Callable, name: str,
                       tag_of: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        recorder = self

        def traced(*args, **kwargs):
            idx = recorder._open(nid, tag_of(args, kwargs) if tag_of else NO_TAG)
            recorder.items[idx] = 0
            return _TimedIterator(recorder, idx, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: list, fn: Callable, traced: Callable) -> None:
        """Rebind every module attribute that is `fn` to `traced`."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
                    self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> array:
        own = array("d", self.dur)
        parent = self.parent
        dur = self.dur
        for i in range(len(dur)):
            p = parent[i]
            if p != ROOT:
                own[p] -= dur[i]
        return own

    def by_name(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        names = self.names
        for i, nid in enumerate(self.name):
            out.setdefault(names[nid], []).append(i)
        return out

    def write_tsv(self, path) -> None:
        """Gzipped, one line per span: index, name, parent, start, duration,
        self time, tag and items yielded (generators only)."""
        own = self.self_times()
        t0 = self.start[0] if self.start else 0.0
        names = [self.names[i] for i in self.name]
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart_s\tdur_s\tself_s\ttag\titems\n")
            fh.writelines(
                f"{i}\t{names[i]}\t{self.parent[i]}\t{self.start[i] - t0:.9f}\t"
                f"{self.dur[i]:.9f}\t{own[i]:.9f}\t{self.tag[i]}\t{self.items.get(i, '')}\n"
                for i in range(len(self.dur)))


class _TimedIterator:
    """Charges only the time inside next() to the generator's span."""

    __slots__ = ("_rec", "_idx", "_it")

    def __init__(self, recorder: SpanRecorder, idx: int, it: Iterator) -> None:
        self._rec = recorder
        self._idx = idx
        self._it = it

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        rec = self._rec
        idx = self._idx
        rec._stack.append(idx)
        t0 = _clock()
        try:
            value = next(self._it)
        finally:
            rec.dur[idx] += _clock() - t0
            rec._stack.pop()
        rec.items[idx] += 1
        return value


def dyckperm_modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "dyckperm" or name.startswith("dyckperm."))]
