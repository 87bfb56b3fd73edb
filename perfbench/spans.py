"""Wrap mgsim's functions at every lookup site and aggregate their spans.

A module that did ``from .fields import inverse`` holds its own reference
to the function, so replacing ``mgsim.fields.inverse`` alone would miss the
calls made through ``mgsim.solver.inverse``.  ``Patches.wrap`` therefore
replaces every attribute of every loaded ``mgsim`` module that *is* the
original function, and ``restore`` puts the originals back.

Spans are aggregated as they close rather than stored one by one: the
eigen workload makes tens of thousands of ``cf_residual`` calls per
repetition, and the per-layer metrics need only counts, total time, self
time (total minus the time covered by child spans) and, per caller, the
time spent in each callee.
"""

import sys
import time
from collections import defaultdict


def _mgsim_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "mgsim" or name.startswith("mgsim.")]


class Patches:
    """Reversible replacement of a function at all of its lookup sites."""

    def __init__(self):
        self._undo = []

    def wrap(self, module, attr, make_wrapper):
        orig = getattr(module, attr)
        new = make_wrapper(orig)
        sites = 0
        for mod in _mgsim_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"{module.__name__}.{attr} has no lookup site")
        return orig

    def restore(self):
        while self._undo:
            mod, key, orig = self._undo.pop()
            setattr(mod, key, orig)


_NO_SPAN = (0, 0.0, 0.0)


class Tracer:
    """Per-name span statistics with caller/callee edges."""

    def __init__(self):
        # name -> [calls, total seconds, seconds covered by child spans]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        # (caller name, callee name) -> [calls, total seconds]
        self.edges = defaultdict(lambda: [0, 0.0])
        self._stack = []

    def span(self, name, fn, on_call=None, on_result=None):
        stack, stats, edges = self._stack, self.stats, self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st = stats[name]
                st[0] += 1
                st[1] += dt
                st[2] += frame[1]
                caller = None
                if stack:
                    caller = stack[-1][0]
                    stack[-1][1] += dt
                edge = edges[(caller, name)]
                edge[0] += 1
                edge[1] += dt
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def calls(self, name):
        return self.stats.get(name, _NO_SPAN)[0]

    def total(self, name):
        return self.stats.get(name, _NO_SPAN)[1]

    def self_time(self, name):
        _, total, child = self.stats.get(name, _NO_SPAN)
        return total - child

    def edge_total(self, caller, callee):
        return self.edges.get((caller, callee), (0, 0.0))[1]
