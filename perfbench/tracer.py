"""Spans around the calls into each rsaffine layer, recorded from outside.

The tracer replaces a function at every name its callers look it up under
(for example both ``rsaffine.hopf.tensor`` and ``rsaffine.cli.tensor``,
because cli imports it with ``from ... import``) with a wrapper that records
a span: name, start, end and the index of the enclosing span.  Spans live in
flat arrays in memory and are reduced to per-layer metrics, and written to
a file, when the traced pass ends.  A span's self time is its duration minus
the time its direct child spans cover.

A patch site that does not exist is reported and skipped, so a refactor of
the program shows up as missing metrics rather than a crash.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict
from functools import update_wrapper

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.flags = defaultdict(set)  # name -> indices of spans marked by a hook
        self.missing = []
        self._undo = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span; returns its index."""
        self.span_name.append(self.name_id(name))
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)
        return len(self.span_start) - 1

    def wrap(self, name, fn, before=None, after=None):
        """A traced stand-in for fn.  before(args) runs ahead of the call;
        after(index, args, result) runs once it returns."""
        nid = self.name_id(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            if before is not None:
                before(args)
            stack.append(idx)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(idx, args, result)
            return result

        update_wrapper(traced, fn)
        return traced

    def patch(self, name, sites, before=None, after=None, kind="function"):
        """Wrap one function at each (module, attribute) site that holds it.

        kind "classmethod" unwraps the descriptor found in the class dict.
        """
        resolved = []
        for modname, attr in sites:
            owner = _resolve(modname)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{name}: {modname}.{attr}")
                continue
            resolved.append((owner, attr, vars(owner)[attr]))
        if not resolved:
            return
        # Sites that hold the same original share one wrapper.
        wrappers = {}
        for owner, attr, orig in resolved:
            key = id(orig)
            if key not in wrappers:
                fn = orig.__func__ if kind == "classmethod" else orig
                w = self.wrap(name, fn, before, after)
                wrappers[key] = classmethod(w) if kind == "classmethod" else w
            setattr(owner, attr, wrappers[key])
            self._undo.append((owner, attr, orig))

    def unpatch(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reduction ---------------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, total self seconds)."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = defaultdict(int)
        selfs = defaultdict(float)
        for i in range(n):
            nm = self.names[self.span_name[i]]
            calls[nm] += 1
            selfs[nm] += ends[i] - starts[i] - covered[i]
        return calls, selfs

    def parents_of(self, name: str):
        """Indices of the direct parents of every span with this name."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [p for i, p in enumerate(self.span_parent) if self.span_name[i] == nid]

    def is_named(self, idx: int, name: str) -> bool:
        return idx >= 0 and self.names[self.span_name[idx]] == name

    def dump(self, path):
        """Write every span as gzipped text: index, name, parent, start, end."""
        t_base = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i] - t_base:.9f}\t{self.span_end[i] - t_base:.9f}\n"
                )


def _resolve(dotted: str):
    """A module, or a class inside a module ("rsaffine.matrix:Matrix")."""
    modname, _, clsname = dotted.partition(":")
    try:
        mod = importlib.import_module(modname)
    except ImportError:
        return None
    return getattr(mod, clsname, None) if clsname else mod


class ImportProfile:
    """Spans for calls made while the package imports (before any patch can
    be installed), for functions picked by (module file suffix, name)."""

    def __init__(self, tracer: Tracer, targets: dict):
        self.tracer = tracer
        self.targets = targets  # (file suffix, function name) -> span name
        self._open = {}

    def _hook(self, frame, event, arg):
        if event not in ("call", "return"):
            return
        code = frame.f_code
        for (suffix, fname), span in self.targets.items():
            if code.co_name == fname and code.co_filename.endswith(suffix):
                if event == "call":
                    self._open[id(frame)] = _clock()
                else:
                    t0 = self._open.pop(id(frame), None)
                    if t0 is not None:
                        self.tracer.record(span, t0, _clock())
                return

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False
