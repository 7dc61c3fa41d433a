"""Outside-in tracing of the ``qprefix`` modules.

The tracer wraps every public function of each module in ``src/qprefix``
(plus ``CodeBook`` validation) from the benchmark's own files; the source is
left untouched.  A wrapper is bound wherever the module namespaces hold the
original, so calls across module boundaries (``from .prefix import
gram_schmidt``) and global lookups inside a module are both traced.  A
direct recursive call of the same function is folded into its caller's span.

Spans (name, start, end, parent, job) are kept in flat in-memory arrays and
written out once, at the end, by :meth:`Tracer.save`.  Counts are taken at
the same boundaries by small hooks that read a call's arguments or result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("qstring", "prefix", "codec", "bruteforce", "channel", "serialize", "cli")


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_projections(counts, fn, args, kwargs, result):
    counts["codec.projections"] += len(result)


def _count_compare(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    steps = a["trials"] * (a["book_a"].max_length + a["book_b"].max_length)
    counts["channel.trials"] += 2 * a["trials"]
    counts["channel.trial_steps"] += steps
    counts["channel.config_steps"] += steps  # messages are single words


def _count_run(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    steps = a["trials"] * a["l_max"]
    counts["channel.trials"] += a["trials"]
    counts["channel.trial_steps"] += steps
    counts["channel.config_steps"] += steps * len(a["message"].terms)


def _count_load(counts, fn, args, kwargs, result):
    counts["serialize.load_json.bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])


def _count_main(counts, fn, args, kwargs, result):
    if result == 2:
        counts["cli.exit2"] += 1


HOOKS = {
    "codec.sequential_projections": _count_projections,
    "channel.compare_codes": _count_compare,
    "channel.run": _count_run,
    "serialize.load_json": _count_load,
    "cli.main": _count_main,
}


class Tracer:
    """Span recorder installed around the public functions of ``qprefix``."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.job_id = -1
        self.counts = Counter()
        self._swaps = []
        self.prepare()

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        stack, name_id, parent, job = self.stack, self.name_id, self.parent, self.job
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, fn, args, kwargs, result)
            return result

        return traced

    def prepare(self):
        """Build the wrappers once; :meth:`install` and :meth:`uninstall` swap them."""
        mods = [importlib.import_module("qprefix." + m) for m in MODULES]
        namespaces = mods + [importlib.import_module("qprefix")]
        for mod in mods:
            short = mod.__name__.split(".")[-1]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap("%s.%s" % (short, attr), obj)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._swaps.append((ns, key, obj, wrapped))
        book = importlib.import_module("qprefix.channel").CodeBook
        original = book.__post_init__
        self._swaps.append((book, "__post_init__", original,
                            self._wrap("channel.CodeBook", original)))

    def install(self):
        for ns, key, _, wrapped in self._swaps:
            setattr(ns, key, wrapped)

    def uninstall(self):
        for ns, key, original, _ in self._swaps:
            setattr(ns, key, original)

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.job, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def save(self, path):
        name_id, parent, job, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, job=job, start=start, end=end)


class SpanTable:
    """Per-function and per-group sums over a tracer's spans."""

    def __init__(self, tracer):
        self.names = tracer.names
        self.name_id, self.parent, _, start, end = tracer.arrays()
        self.dur = end - start
        child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.count = len(self.dur)

    def mask(self, predicate):
        ids = np.array([i for i, n in enumerate(self.names) if predicate(n)], dtype=np.int32)
        return np.isin(self.name_id, ids)

    def _outermost(self, mask):
        # spans in the group none of whose ancestors is in the group
        inside = np.zeros(self.count, dtype=bool)
        up = self.parent.copy()
        while True:
            live = up >= 0
            if not live.any():
                break
            inside[live] |= mask[up[live]]
            up[live] = self.parent[up[live]]
        return mask & ~inside

    def calls(self, mask):
        return int(mask.sum())

    def busy(self, mask):
        return float(self.dur[self._outermost(mask)].sum())

    def self_s(self, mask):
        return float(self.self_time[mask].sum())
