"""Span tracer that wraps a package's public functions from the outside.

Every public function is wrapped in its defining module and in every other
given module that imported it by name (``from .intlinalg import cokernel``
binds ``ktheory.cokernel`` to the same function object), so calls are seen
whichever module makes them.  Spans are kept in memory and written out
once, when the run ends; nothing in the traced package changes.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
import types
from collections import Counter, defaultdict


class Span:
    """One call of a wrapped function; times in clock units (nanoseconds)."""

    __slots__ = ("id", "parent", "name", "request", "word", "start", "end", "ok", "size")

    def __init__(self, id, parent, name, request, word, start, size):
        self.id = id
        self.parent = parent
        self.name = name
        self.request = request
        self.word = word
        self.start = start
        self.end = start
        self.ok = False
        self.size = size

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "request": self.request,
            "word": None if self.word is None else str(self.word),
            "start_ns": self.start,
            "end_ns": self.end,
            "ok": self.ok,
            "size": self.size,
        }


def function_name(func) -> str:
    """``<module>.<function>``, with the module's last dotted component."""
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"


def self_seconds(spans, scale: float = 1e-9) -> dict[str, float]:
    """Self time per function: span duration minus its children's durations.

    Calls run on one thread, so child spans never overlap and their summed
    duration is the part of the parent interval they cover.
    """
    child_time: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start - child_time[s.id]) * scale
    return dict(out)


class Tracer:
    """Records a span per call of each public function of ``modules``.

    ``count_only`` names functions too hot for spans: they only count
    calls.  ``probes`` maps a function name to a callable that reads a size
    from the call's positional arguments.  ``word_of`` reads the kneading
    word a call works on from its positional arguments, or returns None;
    a span without one inherits its parent's.  ``request`` is set by the
    caller before each top-level request and tags every span under it.
    """

    def __init__(self, modules, count_only=(), probes=None, word_of=None,
                 clock=time.perf_counter_ns):
        self.modules = list(modules)
        self.count_only = frozenset(count_only)
        self.probes = dict(probes or {})
        self.word_of = word_of or (lambda args: None)
        self.clock = clock
        self.request = None
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        defining = {m.__name__ for m in self.modules}
        wrappers = {}
        for mod in self.modules:
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ in defining
                    and id(obj) not in wrappers
                ):
                    wrappers[id(obj)] = self._wrap(obj)
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, func):
        name = function_name(func)
        if name in self.count_only:
            counts = self.counts

            @functools.wraps(func)
            def counted(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)

            return counted

        probe = self.probes.get(name)
        stack = self._stack
        spans = self.spans
        clock = self.clock
        word_of = self.word_of

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            word = word_of(args)
            if word is None and parent is not None:
                word = parent.word
            span = Span(
                len(spans),
                None if parent is None else parent.id,
                name,
                self.request,
                word,
                0,
                None if probe is None else probe(args),
            )
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
                span.ok = True
                return result
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def call_counts(self) -> Counter:
        """Calls per function name, spanned or counted.

        A name never called, or of a function that no longer exists, reads 0.
        """
        counts = Counter(s.name for s in self.spans)
        counts.update(self.counts)
        return counts

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, then one line of counts."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(s.as_dict()) + "\n")
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")
