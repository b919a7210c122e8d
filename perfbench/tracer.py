"""Span tracing of the program's public functions, from outside the program.

``install`` wraps every public function of every ``pathcrystals`` module
(functions and ``lru_cache`` objects defined in that module, names without
a leading underscore, except those in ``UNWRAPPED``) and rebinds each
wrapper under every name that held the original in any ``pathcrystals``
namespace.  Rebinding matters because
several modules import names directly: ``decompose`` calls its own binding
of ``decompose_hd`` and ``cli`` its own ``demazure_character``, so patching
only the defining module would miss those calls.  Methods of classes are not
wrapped; their time counts as self time of the calling span.

A span is named ``<module>.<function>``.  Spans are aggregated in memory as
they close: per name the call count, inclusive and self nanoseconds (self is
the span's duration minus the time covered by its child spans) and the number
of non-None results; per (parent, child) pair the call count.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PACKAGE = "pathcrystals"

# Names whose results are collections; the tracer sums their lengths.
SIZED = frozenset({"crystals.generate_level_zero"})
# Per-coordinate helpers called millions of times, where a wrapper would cost
# more than the body; their time counts as self time of the caller.
UNWRAPPED = frozenset({"rootdata.normalize_entry", "rootdata.normalize_weight"})


class Stat:
    __slots__ = ("calls", "incl_ns", "self_ns", "non_none", "size")

    def __init__(self):
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.non_none = 0
        self.size = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.edges: Counter = Counter()  # (parent name, child name) -> calls
        self._stack: list = []  # open spans as [name, child_ns]

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter_ns
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.incl_ns += elapsed
                stat.self_ns += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    edges[(parent[0], name)] += 1
            if result is not None:
                stat.non_none += 1
                if sized:
                    stat.size += len(result)
            return result

        return traced

    def calls(self) -> dict:
        return {name: s.calls for name, s in self.stats.items()}

    def snapshot(self) -> dict:
        return {
            "stats": {
                name: [s.calls, s.incl_ns, s.self_ns, s.non_none, s.size]
                for name, s in self.stats.items()
            },
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
        }


def _public_callables(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and rebind every namespace."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    wrappers = {}
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr, obj in _public_callables(module):
            name = f"{layer}.{attr}"
            if name not in UNWRAPPED:
                wrappers[id(obj)] = (obj, tracer.wrap(name, obj))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
