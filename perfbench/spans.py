"""In-memory span recorder that wraps functions at every binding they are called through.

A function defined in one module is often imported by name into others
(`aerotail.aero.aic_matrix` is also `aerotail.aeroelastic.aic_matrix`).  A
caller looks the name up in its own module, so wrapping only the defining
module would miss calls.  `Tracer.install` replaces the function object at
every module attribute that holds it, with one shared wrapper, and puts the
originals back on exit.  Methods are wrapped once on their class.

Each call records a span (name, start, end, parent, op id).  A span's self
time is its duration minus the part of its interval covered by its direct
children; calls are single-threaded, so children never overlap each other.

Run this file directly to check the self-time arithmetic on synthetic nested
spans driven by a fake clock: `python3 perfbench/spans.py`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import types
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """One function to wrap.

    owner is a module (a plain function, wrapped at every module binding)
    or a class (a method, wrapped on the class).  name is the span name or
    a callable taking the call's arguments and returning it.  observe, when
    given, is called as observe(span_attrs, args, kwargs, result) after a
    successful call to record counts the function returns.
    """

    owner: object
    attr: str
    name: object
    observe: object = None


class Tracer:
    def __init__(self, clock=time.perf_counter, module_prefix: str = "aerotail"):
        self.clock = clock
        self.module_prefix = module_prefix
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self.bindings: dict[str, int] = {}

    def _wrap(self, fn, probe: Probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = probe.name(args, kwargs) if callable(probe.name) else probe.name
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, tracer.clock(), 0.0, parent, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end = tracer.clock()
            if probe.observe is not None:
                probe.observe(span.attrs, args, kwargs, result)
            return result

        return wrapper

    def _module_bindings(self, fn):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == self.module_prefix or mod_name.startswith(self.module_prefix + ".")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    yield mod, attr

    @contextlib.contextmanager
    def install(self, probes):
        """Wrap every probe for the duration of the block."""
        saved = []
        try:
            for probe in probes:
                if isinstance(probe.owner, type):
                    fn = probe.owner.__dict__[probe.attr]
                    targets = [(probe.owner, probe.attr)]
                else:
                    fn = getattr(probe.owner, probe.attr)
                    targets = list(self._module_bindings(fn))
                    if not targets:
                        raise LookupError(f"no binding of {probe.attr} under {self.module_prefix}")
                wrapper = self._wrap(fn, probe)
                label = probe.name if isinstance(probe.name, str) else probe.attr
                self.bindings[label] = len(targets)
                for owner, attr in targets:
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- analysis -------------------------------------------------------------

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def self_times(self) -> list[float]:
        """Duration minus the union of direct children's intervals, per span."""
        kids = self.children()
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            cursor = s.start
            for k in sorted(kids[i], key=lambda j: self.spans[j].start):
                lo = max(self.spans[k].start, cursor)
                hi = min(self.spans[k].end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(s.duration - covered)
        return out

    def ancestor(self, i: int, prefix: str) -> int:
        """Index of the nearest enclosing span whose name starts with prefix, or -1."""
        p = self.spans[i].parent
        while p >= 0 and not self.spans[p].name.startswith(prefix):
            p = self.spans[p].parent
        return p

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "op": s.op, **s.attrs}
                    )
                    + "\n"
                )


def selfcheck() -> None:
    """Self-time arithmetic on nested spans under a fake clock; raises on a mismatch."""
    now = [0.0]

    def clock():
        return now[0]

    def tick(dt):
        now[0] += dt

    pkg = types.ModuleType("spanfake")
    lib = types.ModuleType("spanfake.lib")
    user = types.ModuleType("spanfake.user")

    def leaf(dt):
        tick(dt)
        return dt

    def middle():
        tick(1.0)
        lib.leaf(2.0)  # reached through the defining module
        tick(0.5)
        return 0

    def outer():
        tick(0.25)
        lib.middle()
        user.leaf(4.0)  # reached through a by-name import elsewhere
        tick(0.125)

    lib.leaf, lib.middle, lib.outer = leaf, middle, outer
    user.leaf = leaf
    added = {"spanfake": pkg, "spanfake.lib": lib, "spanfake.user": user}
    sys.modules.update(added)
    try:
        tracer = Tracer(clock=clock, module_prefix="spanfake")

        def observe(attrs, args, kwargs, result):
            attrs["arg"] = result

        probes = [
            Probe(lib, "leaf", "lib.leaf", observe),
            Probe(lib, "middle", "lib.middle"),
            Probe(lib, "outer", "lib.outer"),
        ]
        with tracer.install(probes):
            tracer.op = 0
            lib.outer()
        if lib.leaf is not leaf or user.leaf is not leaf:
            raise AssertionError("bindings not restored")
    finally:
        for name in added:
            sys.modules.pop(name, None)

    if tracer.bindings != {"lib.leaf": 2, "lib.middle": 1, "lib.outer": 1}:
        raise AssertionError(f"bindings found: {tracer.bindings}")
    names = [s.name for s in tracer.spans]
    if names != ["lib.outer", "lib.middle", "lib.leaf", "lib.leaf"]:
        raise AssertionError(f"span order: {names}")
    expected_self = [0.375, 1.5, 2.0, 4.0]
    expected_dur = [7.875, 3.5, 2.0, 4.0]
    got_self = tracer.self_times()
    got_dur = [s.duration for s in tracer.spans]
    if got_self != expected_self or got_dur != expected_dur:
        raise AssertionError(f"self {got_self} / duration {got_dur}")
    if [s.parent for s in tracer.spans] != [-1, 0, 1, 0]:
        raise AssertionError("parent links")
    if [s.attrs.get("arg") for s in tracer.spans[2:]] != [2.0, 4.0]:
        raise AssertionError("observed attributes")
    if tracer.ancestor(2, "lib.outer") != 0 or tracer.ancestor(3, "lib.middle") != -1:
        raise AssertionError("ancestor lookup")
    if abs(sum(got_self) - got_dur[0]) > 0.0:
        raise AssertionError("self times do not partition the root span")


if __name__ == "__main__":
    selfcheck()
    print("span self-time check passed")
