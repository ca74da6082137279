"""Spans and call counts for the benchmark's traced runs.

The tracer wraps, from outside the library, every function that a fanog2
module defines, every method of the classes it defines, and the dunder
methods of ``fractions.Fraction`` (the field Q is ``Fraction``, so its
arithmetic belongs to the ``scalars`` layer).  Each wrapped call is counted.
A call opens a span when it crosses from one layer into another, or when it
is a suite function of the CLI; calls that stay inside the current layer are
only counted, so the span tree follows the layer boundaries.

A span that ends without children is merged into one record per parent and
name, carrying the number of calls and their summed duration.  A verify run
crosses into ``fano`` and ``scalars`` more than a million times each, and
this keeps the spans of a run in a few megabytes of memory.
"""

import fractions
import functools
import importlib
import itertools
import sys
import time
import types
from collections import Counter, namedtuple

LAYERS = (
    "cli",
    "fano",
    "compfactor",
    "radon",
    "octonion",
    "lifting",
    "g2",
    "forms",
    "linalg",
    "scalars",
)
PACKAGE = "fanog2"
# Calls that always open a span, even inside their own layer.
SPAN_PREFIXES = ("cli.suite_",)

# One record per span: `busy` is the summed duration of its `count` calls,
# which equals end - start when count is 1.
Span = namedtuple("Span", "op id parent name start end count busy")


def _defined_in(obj, module):
    """Whether obj is a function (lru_cache-wrapped or not) defined in module."""
    if isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)):
        return getattr(obj, "__module__", None) == module.__name__
    return False


class Tracer:
    """Counts and spans of one operation (one CLI process or kernel batch)."""

    def __init__(self, op):
        self.op = op
        self.calls = Counter()
        self.spans = []
        self._ids = itertools.count(1)
        # an open span: [id, layer, name, start, merged leaves, has plain children]
        self._stack = [[0, "op", "op", time.perf_counter(), None, False]]
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, name, layer, fn):
        calls = self.calls
        stack = self._stack
        clock = time.perf_counter
        ids = self._ids
        close = self._close
        always_span = name.startswith(SPAN_PREFIXES)

        def traced(*args, **kwargs):
            calls[name] += 1
            if stack[-1][1] == layer and not always_span:
                return fn(*args, **kwargs)
            span = [next(ids), layer, name, clock(), None, False]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(span, end, stack[-1])

        return functools.wraps(fn)(traced)

    def _close(self, span, end, parent):
        sid, _, name, start, merged, has_children = span
        if merged is None and not has_children:
            leaves = parent[4]
            if leaves is None:
                leaves = parent[4] = {}
            acc = leaves.get(name)
            if acc is None:
                leaves[name] = [1, end - start, start, end]
            else:
                acc[0] += 1
                acc[1] += end - start
                acc[3] = end
            return
        parent[5] = True
        self._emit(span, end, parent[0])

    def _emit(self, span, end, parent_id):
        sid, _, name, start, merged, _ = span
        self.spans.append(Span(self.op, sid, parent_id, name, start, end, 1, end - start))
        for leaf, (count, busy, first, last) in (merged or {}).items():
            self.spans.append(Span(self.op, next(self._ids), sid, leaf, first, last, count, busy))

    def finish(self):
        """Close the operation's root span and return all spans."""
        root = self._stack[0]
        self._emit(root, time.perf_counter(), None)
        return self.spans

    # -- installation -----------------------------------------------------

    def _patch_attr(self, target, attr, value):
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(obj, types.FunctionType):
                self._patch_attr(cls, attr, self._wrap(name, layer, obj))
            elif isinstance(obj, property) and obj.fget is not None:
                self._patch_attr(cls, attr, property(self._wrap(name, layer, obj.fget)))

    def install(self):
        """Wrap the layers of the fanog2 package in place."""
        modules = {layer: importlib.import_module(PACKAGE + "." + layer) for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if _defined_in(obj, module):
                    wrappers[id(obj)] = self._wrap(layer + "." + attr, layer, obj)
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer)
        # Rebind every reference a namespace holds, including dict tables
        # of functions such as cli.SUITES.
        for module in list(modules.values()) + [sys.modules[PACKAGE]]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch_attr(module, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._patches.append((obj, key, value))
                            obj[key] = wrappers[id(value)]
        frac = fractions.Fraction
        for attr, obj in list(vars(frac).items()):
            if not (attr.startswith("__") and attr.endswith("__")):
                continue
            name = "scalars.Fraction." + attr
            if isinstance(obj, staticmethod):
                self._patch_attr(frac, attr, staticmethod(self._wrap(name, "scalars", obj.__func__)))
            elif isinstance(obj, types.FunctionType):
                self._patch_attr(frac, attr, self._wrap(name, "scalars", obj))

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches = []


# -- analysis ---------------------------------------------------------------


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Self time of each span: its busy time minus the part its children cover.

    The program is single-threaded, so the children of a span never overlap
    and the part they cover is the sum of their busy times.
    """
    covered = Counter()
    for s in spans:
        if s.parent is not None:
            covered[(s.op, s.parent)] += s.busy
    return {(s.op, s.id): max(0.0, s.busy - covered[(s.op, s.id)]) for s in spans}


def layer_self_seconds(spans):
    """Summed self time per layer; the root span of an operation is 'op'."""
    out = Counter()
    selfs = self_times(spans)
    for s in spans:
        out[layer_of(s.name)] += selfs[(s.op, s.id)]
    return out


def inclusive_seconds(spans, name):
    return sum(s.busy for s in spans if s.name == name)
