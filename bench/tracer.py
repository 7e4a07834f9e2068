"""In-memory span tracer that wraps library functions from the outside.

A `Tracer` replaces public functions and methods of the library at module or
class level with thin wrappers and puts the originals back on `uninstall`.
Each wrapped call records one `Span` (name, start, end, parent, op id, tags);
counted-only targets just bump a counter.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the time its child spans
cover; single-threaded calls nest, so children are disjoint and the covered
time is the sum of their durations.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 at top level
    op: int              # op id; -1 during set-up
    tags: dict | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    error: str | None = None
    returned_none: bool = False

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    `module` and `path` locate the original, e.g. ("gcba.geodesics",
    "GeodesicEngine.distance").  A module-level function is patched in every
    loaded module of the package that binds the same object, so calls through
    `from x import f` aliases are seen too.  `tagger(args, kwargs)` returns
    the span's tags; `count_only` records a call count and no span."""

    name: str
    module: str
    path: str
    tagger: object = None
    count_only: bool = False


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.paused = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (owner, attr, original)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name: str, tagger=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            tags = tagger(args, kwargs) if tagger is not None else None
            parent = stack[-1] if stack else -1
            sp = Span(name, parent, self.op, tags)
            stack.append(len(spans))
            spans.append(sp)
            sp.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                sp.error = type(exc).__name__
                raise
            finally:
                sp.end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += sp.end - sp.start
            sp.returned_none = result is None
            return result

        return traced

    def counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.paused:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, targets) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for t in targets:
            owner, attr, original = _resolve(t)
            if t.count_only:
                wrapper = self.counter(original, t.name)
            else:
                wrapper = self.wrap(original, t.name, t.tagger)
            for holder in _holders(owner, attr, original):
                setattr(holder, attr, wrapper)
                self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def patched(self) -> list[tuple]:
        """(holder, attr, original) for every attribute currently replaced."""
        return list(self._patches)

    @staticmethod
    def restored(patched) -> bool:
        """True when every attribute in `patched` holds its original again."""
        return all(
            (holder.__dict__[attr] if isinstance(holder, type)
             else getattr(holder, attr)) is original
            for holder, attr, original in patched)

    # -- output ---------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": sp.name, "parent": sp.parent,
                    "op": sp.op, "start": sp.start, "end": sp.end,
                    "self_s": sp.self_s, "tags": sp.tags,
                    "error": sp.error}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _resolve(t: Target):
    module = sys.modules.get(t.module) or __import__(t.module, fromlist=["_"])
    owner = module
    parts = t.path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        original = owner.__dict__[attr]
    else:
        original = getattr(owner, attr)
    return owner, attr, original


def _holders(owner, attr, original):
    """The owner, plus for module functions every sibling module of the same
    package that binds the same object under the same name."""
    if isinstance(owner, type):
        return [owner]
    package = owner.__name__.split(".")[0]
    out = [owner]
    for name, mod in list(sys.modules.items()):
        if mod is owner or mod is None:
            continue
        if name == package or name.startswith(package + "."):
            if getattr(mod, attr, None) is original:
                out.append(mod)
    return out
