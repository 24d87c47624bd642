"""Call tracing for the traced benchmark run.

The tracer wraps public callables of `a2webs` from outside the library:
a wrapped function is rebound in every `a2webs` module namespace that
holds the same object (``from .webcore import canonical_form`` copies
the binding), and a wrapped method is rebound on its class under every
attribute that names it (``__radd__ = __add__``).  The library itself
is not edited.

Each wrapped call is a span.  A span's self time is its duration minus
the time its wrapped child spans cover; its inclusive time is counted
only for the outermost active call of a name, so recursion is not
counted twice.  Spans of names marked ``spans=True`` in the layer table
are also kept one by one (name, start, end, parent span, operation id);
the hot names are only aggregated.  Generator functions are counted by
calls and by the items they yield; the time spent producing the items
belongs to the consumer's span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.counters: defaultdict = defaultdict(float)
        self.spans: list = []
        self.op = None
        self._stack: list = []  # one frame per active span: [child_seconds, recorded span id]
        self._stats: list = []  # (name, group, stats list) per wrapped callable
        self._origin = _clock()

    def begin_op(self, op) -> None:
        """Tag the spans that follow with an operation id."""
        self.op = op

    def install(self, wraps) -> None:
        """Wrap every entry of the layer table (see layers.WRAPS)."""
        for w in wraps:
            module = sys.modules[f"a2webs.{w.module}"]
            owner_name, _, attr = w.attr.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(w, raw.__func__))
                else:
                    new = self._wrap(w, raw)
                for key, value in list(cls.__dict__.items()):
                    if value is raw:
                        setattr(cls, key, new)
            else:
                raw = getattr(module, attr)
                new = self._wrap(w, raw)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "a2webs" or mod_name.startswith("a2webs."):
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                setattr(mod, key, new)

    def _wrap(self, w, fn):
        name = w.name
        counters = self.counters
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                counters[name + ".calls"] += 1
                for item in fn(*args, **kwargs):
                    counters[name + ".yielded"] += 1
                    yield item

            return gen_wrapper

        stack = self._stack
        spans = self.spans
        keep = w.spans
        hook = w.hook
        group = w.group
        origin = self._origin
        tracer = self
        stats = [0, 0.0, 0.0, 0]  # calls, inclusive s, self s, active depth
        self._stats.append((name, group, stats))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if keep:
                span_id = len(spans)
                spans.append(None)
                frame = [0.0, span_id]
            else:
                frame = [0.0, parent]
            stats[3] += 1
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                d = t1 - t0
                stats[3] -= 1
                stats[0] += 1
                stats[2] += d - frame[0]
                if not stats[3]:
                    stats[1] += d
                if stack:
                    stack[-1][0] += d
                if keep:
                    spans[frame[1]] = (frame[1], name, t0 - origin, t1 - origin, parent, tracer.op)
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def results(self) -> dict:
        """Flat counters: <name>.calls, .incl_s, .self_s, <group>.self_s
        and whatever the hooks added."""
        out = defaultdict(float, self.counters)
        for name, group, (calls, incl, self_s, _) in self._stats:
            out[name + ".calls"] += calls
            out[name + ".incl_s"] += incl
            out[name + ".self_s"] += self_s
            if group:
                out[group + ".self_s"] += self_s
        return dict(out)
