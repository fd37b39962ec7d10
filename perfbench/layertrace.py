"""Span tracing of blowuplab's layers from outside the package.

`Tracer.install()` replaces, in memory, the module attributes through which
each layer is reached, with wrappers that record a span (name, start, end,
parent) and count the work a call does.  Names a module imported with
`from .x import y` are wrapped where they are looked up, so every call path
is seen.  `restore()` puts the originals back.  Nothing inside the package
is edited.

Counting that itself costs time (distinct prefix rows) runs inside a
`trace.bookkeeping` span, so it is charged to no layer.
"""

import time
from collections import defaultdict

import numpy as np

OP = "bench.op"
BOOKKEEPING = "trace.bookkeeping"

# Layer spans reported as per-layer self times, in output order.  Metric
# names must start with a letter, so the `_kernels` module reports as
# `kernels`.
LAYERS = (
    "kernels.row_reductions",
    "kernels.indicator_moment_block",
    "sphere.indicator_moment_columns",
    "sphere.adaptive_prefix",
    "sphere.prefix_rule",
    "sphere.mc_integrate",
    "moments.compute_moments",
    "moments.mc_moment_check",
    "quadratic.diagonalize",
    "renorm.half_step",
    "renorm.iterate",
    "gridproj.project",
)

# lru caches whose hit share is taken from cache_info() deltas of the originals.
CACHES = (
    ("sphere.adaptive_prefix", "sphere", "_adaptive_circle_prefix"),
    ("sphere.prefix_rule", "sphere", "_prefix_rule"),
    ("moments.zero_columns", "moments", "_zero_columns"),
)


def _distinct_rows(zsq):
    """Number of prefix rows that differ after rounding to 12 decimals."""
    return int(np.unique(np.round(np.asarray(zsq), 12), axis=0).shape[0])


class Tracer:
    def __init__(self, bl):
        self.bl = bl
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def op(self, fn, *args, **kwargs):
        """Run one benchmark operation as a root span."""
        rec = self._open(OP)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _wrap(self, owner, attr, name, before=None, after=None):
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                book = tracer._open(BOOKKEEPING)
                before(args, kwargs)
                tracer._close(book)
            rec = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(rec)
            tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- counters ------------------------------------------------------------

    def _count_rows(self, args, kwargs):
        zsq, glx = args[0], args[4]
        rows = int(np.shape(zsq)[0])
        c = self.counts
        c["kernels.row_reductions.rows"] += rows
        c["kernels.row_reductions.row_nodes"] += rows * 2 * len(glx)
        c["kernels.row_reductions.distinct_rows"] += _distinct_rows(zsq)

    def _count_samples(self, args, kwargs):
        self.counts["sphere.mc_integrate.samples"] += int(args[2])

    def _count_iterate(self, rec):
        self.counts["renorm.iterate.steps"] += len(rec.steps) - 1
        self.counts["renorm.iterate." + rec.classification.kind] += 1

    def _count_points(self, result):
        self.counts["gridproj.project.points_used"] += int(result.points_used)

    # -- install / restore -----------------------------------------------------

    def install(self):
        bl = self.bl
        k, sphere, moments = bl._kernels, bl.sphere, bl.moments
        renorm, quadratic, gridproj = bl.renorm, bl.quadratic, bl.gridproj
        w = self._wrap
        w(k, "row_reductions", "kernels.row_reductions", before=self._count_rows)
        w(k, "indicator_moment_block", "kernels.indicator_moment_block")
        w(sphere, "indicator_moment_columns", "sphere.indicator_moment_columns")
        w(moments, "indicator_moment_columns", "sphere.indicator_moment_columns")
        w(sphere, "_adaptive_circle_prefix", "sphere.adaptive_prefix")
        w(sphere, "_prefix_rule", "sphere.prefix_rule")
        w(sphere, "mc_integrate", "sphere.mc_integrate", before=self._count_samples)
        w(moments, "mc_integrate", "sphere.mc_integrate", before=self._count_samples)
        w(moments, "compute_moments", "moments.compute_moments")
        w(renorm, "compute_moments", "moments.compute_moments")
        w(moments, "mc_moment_check", "moments.mc_moment_check")
        w(quadratic, "diagonalize", "quadratic.diagonalize")
        w(renorm, "diagonalize", "quadratic.diagonalize")
        w(renorm, "_step_detail", "renorm.half_step")
        w(renorm, "iterate", "renorm.iterate", after=self._count_iterate)
        w(gridproj, "project", "gridproj.project", after=self._count_points)
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def cache_info(self):
        """Current (hits, misses) of the lru-cached originals."""
        out = {}
        for name, mod, attr in CACHES:
            fn = getattr(getattr(self.bl, mod), attr)
            while not hasattr(fn, "cache_info"):
                fn = fn.__wrapped__
            info = fn.cache_info()
            out[name] = (info.hits, info.misses)
        return out

    # -- reduction -------------------------------------------------------------

    def self_times(self):
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def dump(self):
        """Spans as JSON-ready rows, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]
