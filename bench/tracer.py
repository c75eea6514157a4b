"""Spans and counts around calls into treegibbs, installed from outside.

``Tracer.install`` replaces every public function of the traced modules (and
the few private helpers that do the enumeration) by a wrapper that records a
span: name, start, end, parent span and job id.  The wrapper is bound in
every treegibbs namespace that held the original, so calls between modules
are caught too; ``uninstall`` puts the originals back.  Nothing in the
package itself changes.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import inspect
import json
import time
import tracemalloc
from collections import Counter, defaultdict

import treegibbs
from treegibbs import classifier, cli, fields, measures, model, topology

MODULES = (topology, model, fields, measures, classifier, cli)
PRIVATE = {measures: ("_enumerate_configs", "_edge_energies")}
# Allocation peaks are taken inside these spans only (tracemalloc slows
# allocation, and elimination allocates many small arrays for no memory).
MEMORY = {"measures.finite_volume_measure", "measures.marginalize",
          "measures.consistency_residual", "measures.markov_property_residual",
          "measures.dlr_conditional"}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []          # (name, start, end, parent, job)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self.alloc_peak = 0
        self._originals: dict[int, tuple[object, object]] = {}   # id(orig) -> (orig, wrapper)
        self._lam_float = model.LambdaModel.lam_float
        self._build_ball = topology.build_ball
        self._cached_balls = 0

    # -- installation ---------------------------------------------------------

    def _targets(self):
        for mod in MODULES:
            for attr, obj in vars(mod).items():
                fn = inspect.unwrap(obj) if callable(obj) else None
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if not attr.startswith("_") or attr in PRIVATE.get(mod, ()):
                    yield f"{_short(mod)}.{attr}", obj

    def install(self):
        for name, obj in self._targets():
            self._originals[id(obj)] = (obj, self._wrap(name, obj))
        for ns in (treegibbs, *MODULES):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in self._originals and self._originals[id(obj)][0] is obj:
                    setattr(ns, attr, self._originals[id(obj)][1])
        counts = self.counts
        lam_float = self._lam_float.fget

        def counted(self_):
            counts["model.lam_float.calls"] += 1
            return lam_float(self_)

        model.LambdaModel.lam_float = property(counted)

    def uninstall(self):
        wrappers = {id(w): orig for orig, w in self._originals.values()}
        for ns in (treegibbs, *MODULES):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, attr, wrappers[id(obj)])
        model.LambdaModel.lam_float = self._lam_float
        self._originals.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        key = name.replace(".", "_")
        before = getattr(self, "_before_" + key, None)
        after = getattr(self, "_after_" + key, None)
        signature = inspect.signature(fn) if after else None
        memory = name in MEMORY

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            watch = memory and not tracemalloc.is_tracing()
            if watch:
                tracemalloc.start()
            if before is not None:
                before()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if watch:
                    self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(result, **bound.arguments)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts taken where the work happens ----------------------------------

    def _before_topology_build_ball(self):
        self._cached_balls = self._build_ball.cache_info().currsize

    def _after_topology_build_ball(self, ball, k, n):
        # lru_cache: only a miss builds a ball; the benchmark clears it per job.
        if self._build_ball.cache_info().currsize > self._cached_balls:
            self.counts["topology.vertices"] += ball.num_vertices

    def _after_fields_propagate_fields(self, result, ball, **_):
        self.counts["fields.propagate.vertices"] += ball.num_vertices

    def _after_fields_ti_fixed_points(self, result, starts, **_):
        tried = starts + 1                                  # the zero start as well
        self.counts["fields.ti_fixed_points.starts"] += tried
        self.counts["fields.ti_fixed_points.converged"] += tried - result.non_converged

    def _after_measures__enumerate_configs(self, result, q, num_vertices, **_):
        self.counts["measures.configs"] += q**num_vertices

    def _after_measures_two_point_correlation(self, result, model, x0, x1, n):
        sweeps = model.q if x0 == x1 else model.q**2      # clamped value pairs
        vertices = 1 + (model.k + 1) * sum(model.k**m for m in range(n))
        self.counts["measures.elimination.vertex_sweeps"] += sweeps * (vertices - 1)

    def _after_classifier_classify(self, result, **_):
        self.counts["classifier.multipliers"] += len(result.multipliers or ())

    # -- output ---------------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.alloc_peak = 0

    def _under(self, parent: int, names) -> bool:
        """Does the chain of spans from ``parent`` up to the root hold one of ``names``?"""
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def calls(self, name: str, under: str | None = None) -> int:
        """Number of spans called ``name``, optionally only those below a span ``under``."""
        return sum(1 for n, _, _, parent, _ in self.spans
                   if n == name and (under is None or self._under(parent, (under,))))

    def seconds(self, *names: str) -> float:
        """Time in spans with these names, not counting one nested in another of them."""
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if name in names and not self._under(parent, names))

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by its child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def dump(self, path: str, extra: dict):
        with open(path, "w") as fh:
            json.dump({**extra, "fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)
