"""Traced runs: spans around the public functions of each graphtree module.

The wrappers are installed from here, at run time, into every graphtree
module namespace that holds the function; nothing under src/ changes. Spans
(name, layer, start, end, parent) stay in memory and are written out when
the run ends. A layer's self time is its spans' durations minus the part
their child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
import tracemalloc

LAYERS = ("graph_io", "sampling", "smoothing", "linkage", "mergeon", "experiments")

# full estimator passes: each is O(n^4) (modified) or O(n^3) (original)
PASSES = {
    "estimate_modified": "modified",
    "modified_neighborhood_sizes": "modified",
    "estimate_original": "original",
    "original_neighborhood_sizes": "original",
}
SERIALIZERS = ("to_json", "to_newick", "from_json")

PER_LAYER = (
    ("smoothing.modified.time_s", "s"),
    ("smoothing.original.time_s", "s"),
    ("smoothing.pairs_per_s", "1/s"),
    ("smoothing.passes", "count/op"),
    ("smoothing.peak_alloc_mib", "MiB"),
    ("linkage.merge_estimate_s", "s"),
    ("linkage.build_dendrogram_s", "s"),
    ("linkage.serialize_s", "s"),
    ("graph_io.time_s", "s"),
    ("sampling.time_s", "s"),
    ("mergeon.time_s", "s"),
    ("experiments.self_s", "s"),
    ("cli.self_s", "s"),
    ("host.kernel_s", "s"),
)


@dataclasses.dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: "int | None"  # index of the enclosing span
    end: float = 0.0
    n: "int | None" = None  # graph size, for estimator passes
    peak_alloc_bytes: "int | None" = None  # tracemalloc peak, for estimator passes

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name: str, layer: str) -> Span:
        span = Span(name, layer, time.perf_counter(), self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str, layer: str):
        is_pass = fn.__name__ in PASSES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, layer)
            own_malloc = is_pass and not tracemalloc.is_tracing()
            if is_pass:
                span.n = args[0].shape[0]
            if own_malloc:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if own_malloc:
                    span.peak_alloc_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.end(span)

        return traced

    def install(self) -> None:
        """Replace each public function of each layer, wherever graphtree imported it."""
        import graphtree.linkage

        swap = {}
        for layer in LAYERS:
            mod = sys.modules[f"graphtree.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    swap[id(fn)] = self.wrap(fn, name, layer)
        for modname, mod in list(sys.modules.items()):
            if modname == "graphtree" or modname.startswith("graphtree."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in swap:
                        setattr(mod, attr, swap[id(value)])
        cls = graphtree.linkage.Dendrogram
        for name in SERIALIZERS:
            raw = inspect.getattr_static(cls, name)
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self.wrap(raw.__func__, f"Dendrogram.{name}", "linkage")))
            else:
                setattr(cls, name, self.wrap(raw, f"Dendrogram.{name}", "linkage"))

    def _self_times(self) -> list:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def metrics(self, rounds: int, attempted: int, factor: float, kernel_s: float) -> dict:
        """Per-layer metrics. Times are seconds per round scaled by `factor` to
        the reference host speed, like wall_s; kernel_s is the run's median
        host-speed kernel time, unscaled."""
        spans = self.spans
        own = self._self_times()
        per_round = factor / rounds

        def inclusive(layer):
            # outermost spans of the layer, so nested calls count once
            return sum(s.duration for s in spans
                       if s.layer == layer and (s.parent is None or spans[s.parent].layer != layer))

        def self_time(layer):
            return sum(t for s, t in zip(spans, own) if s.layer == layer)

        def named(names):
            return sum(s.duration for s in spans if s.name in names)

        passes = [s for s in spans if s.name in PASSES]
        pass_time = sum(s.duration for s in passes)
        pairs = sum(s.n * (s.n - 1) for s in passes)
        values = {
            "smoothing.modified.time_s":
                named([k for k, v in PASSES.items() if v == "modified"]) * per_round,
            "smoothing.original.time_s":
                named([k for k, v in PASSES.items() if v == "original"]) * per_round,
            "smoothing.pairs_per_s": pairs / (pass_time * factor) if pass_time else 0.0,
            "smoothing.passes": len(passes) / attempted,
            "smoothing.peak_alloc_mib": max((s.peak_alloc_bytes for s in passes), default=0) / 2**20,
            "linkage.merge_estimate_s": named(["merge_estimate"]) * per_round,
            "linkage.build_dendrogram_s": named(["build_dendrogram"]) * per_round,
            "linkage.serialize_s": named([f"Dendrogram.{m}" for m in SERIALIZERS]) * per_round,
            "graph_io.time_s": inclusive("graph_io") * per_round,
            "sampling.time_s": inclusive("sampling") * per_round,
            "mergeon.time_s": inclusive("mergeon") * per_round,
            "experiments.self_s": self_time("experiments") * per_round,
            "cli.self_s": self_time("cli") * per_round,
            "host.kernel_s": kernel_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def self_shares(self, wall: float) -> dict:
        """Each layer's self time as a share of the traced operations' wall time."""
        shares = {}
        for s, t in zip(self.spans, self._self_times()):
            shares[s.layer] = shares.get(s.layer, 0.0) + t / wall
        return shares

    def dump(self) -> list:
        return [dataclasses.asdict(s) for s in self.spans]
