"""Spans and counters recorded from outside the library.

A Tracer replaces, in every switchgain module namespace, each public
function of the seven layers (core, flows, realization, spectral, l2gain,
gallery, cli) and the numeric kernels those modules import (scipy's expm and
solve_ivp, numpy's linalg.eigvalsh) with a wrapper that records one span:
(name, start, end, parent span, query id).  Calls between modules go through
these namespaces, so nested calls become child spans.  The library source is
not modified; uninstall() puts every original object back.

Spans stay in memory and are written once, by write_spans(), when the run
ends.  summarize() turns them into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

import numpy as np
import scipy.integrate
import scipy.linalg

LAYERS = ("core", "flows", "realization", "spectral", "l2gain", "gallery", "cli")

# rho_upper flags that mark a bound as best-effort rather than certified
UNCERTIFIED = ("budget_exhausted", "not_stabilized", "long_dwell_heuristic")


class _Proxy:
    """Attribute-forwarding stand-in for a module, with some names overridden.

    Forwarded attributes are cached on the instance, so after the first
    lookup an access costs what an ordinary attribute access costs.
    """

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        setattr(self, name, value)
        return value


def _count_nfev(counts, args, kwargs, result):
    counts["kernel.solve_ivp.rhs_evals"] += int(result.nfev)


def _count_matrices(counts, args, kwargs, result):
    # a stacked (..., n, n) argument holds prod(shape[:-2]) matrices; a plain one holds 1
    counts["kernel.eigvalsh.matrices"] += int(np.prod(np.shape(args[0])[:-2], dtype=np.int64))


def _count_rho_upper(counts, args, kwargs, result):
    # a certified result reports the eps that certified, eps * 2**retries; an
    # uncertified one reports the first, tightest attempt after every attempt ran
    if "not_stabilized" in result.flags or "budget_exhausted" in result.flags:
        retries = max(kwargs.get("eps_attempts", 4), 1) - 1
    else:
        base = kwargs.get("eps", 0.005)
        used = next(float(f[4:]) for f in result.flags if f.startswith("eps="))
        retries = int(round(math.log2(used / base)))
    counts["spectral.rho_upper.eps_retries"] += retries
    if any(flag in result.flags for flag in UNCERTIFIED):
        counts["spectral.rho_upper.uncertified"] += 1


_AFTER = {
    "kernel.solve_ivp": _count_nfev,
    "kernel.eigvalsh": _count_matrices,
    "spectral.rho_upper": _count_rho_upper,
}


class Tracer:
    """Installs span-recording wrappers into the switchgain package."""

    def __init__(self):
        self.spans = []                  # [name, start, end, parent index, query id]
        self.counts = defaultdict(int)
        self.qid = -1                    # query id stamped on new spans; -1 = set-up
        self._stack = []
        self._patches = []               # (namespace, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        after = _AFTER.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.qid]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("switchgain")
        modules = {layer: importlib.import_module(f"switchgain.{layer}") for layer in LAYERS}
        namespaces = [pkg, *modules.values()]

        replacements = {}                # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replacements[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        replacements[id(scipy.linalg.expm)] = self._wrap("kernel.expm", scipy.linalg.expm)
        replacements[id(scipy.integrate.solve_ivp)] = self._wrap("kernel.solve_ivp",
                                                                 scipy.integrate.solve_ivp)
        np_proxy = _Proxy(np, linalg=_Proxy(np.linalg, eigvalsh=self._wrap("kernel.eigvalsh",
                                                                           np.linalg.eigvalsh)))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if obj is np:
                    self._patch(ns, attr, np_proxy)
                elif id(obj) in replacements and not attr.startswith("__"):
                    self._patch(ns, attr, replacements[id(obj)])

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def write_spans(self, path):
        """Write every span as one JSON array per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, qid in self.spans:
                fh.write(json.dumps([name, start, end, parent, qid]) + "\n")


def summarize(spans, counts, query_ids):
    """Per-name call counts, inclusive and self busy time, and derived ratios.

    Only spans whose query id is in query_ids are counted, except the gallery
    layer, whose calls happen while inputs are built (query id -1).  `.s` sums
    the outermost spans of a name (a nested span of the same name is already
    inside its ancestor); `.self_s` is a span's duration minus the durations of
    its direct children, which in one thread are disjoint and inside it.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    child_time = defaultdict(float)
    for idx, (name, start, end, parent, qid) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
    searches = 0
    search_bisections = 0
    gallery_s = 0.0
    for idx, (name, start, end, parent, qid) in enumerate(spans):
        dur = end - start
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if name.startswith("gallery.") and not any(a.startswith("gallery.") for a in ancestors):
            gallery_s += dur
        if qid not in query_ids:
            continue
        calls[name] += 1
        self_s[name] += dur - child_time[idx]
        if name not in ancestors:
            incl[name] += dur
        if name == "l2gain.gain_search":
            searches += 1
        elif name == "l2gain.gain_for_signal" and "l2gain.gain_search" in ancestors:
            search_bisections += 1

    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = incl[name]
        out[f"{name}.self_s"] = self_s[name]
    out.update(counts)
    out["gallery.s"] = gallery_s
    out["l2gain.bisections_per_search"] = search_bisections / searches if searches else 0.0
    return out
