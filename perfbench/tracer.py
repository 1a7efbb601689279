"""Per-layer spans and counters, recorded from outside the rc2 package.

The traced benchmark run wraps rc2's public functions in place: every module
global (and three class attributes) that refers to a wrapped function is
replaced by a wrapper that records a span or bumps a counter.  Nothing in
``src/rc2`` is edited, and the untraced runs pay nothing.

A span is ``(span_id, parent_id, job_id, name, start, end)``.  Spans of one
benchmark job share the job's id, taken from the ``job`` root span.  Spans
stay in memory and are written out once, at the end of the run.  A layer's
self time is its spans' duration minus the time covered by their child
spans.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Layers that must record calls on each workload; the traced run fails when
# one of them reads zero (a refactor that moves a function must not silently
# empty a layer).
REQUIRED_LAYERS = {
    "color-sparse": (
        "cli", "graphs.parse", "graphs.is_two_connected", "graphs.adjacency",
        "minimalize", "ears", "menger", "coloring",
    ),
    "color-dense": (
        "cli", "graphs.parse", "graphs.is_two_connected", "graphs.adjacency",
        "minimalize", "ears", "menger", "coloring",
    ),
    "verify-mid": ("cli", "graphs.parse", "graphs.adjacency", "verify.a1"),
    "small-exact": (
        "cli", "graphs.parse", "graphs.is_two_connected", "graphs.adjacency",
        "minimalize", "ears", "menger", "coloring", "verify.a1", "verify.replay",
        "oracle", "oracle.index_build", "oracle.census",
    ),
}

STRATEGIES = ("cycle", "hamiltonian_chord", "ear_induction")


class LayerCoverageError(RuntimeError):
    """A layer listed for a workload recorded no calls in the traced run."""


class Tracer:
    """In-memory span and counter recorder (single-threaded)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span_id, job_id, name, start, child_time]
        self._next_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)

    def enter(self, name: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        job_id = self._stack[0][0] if self._stack else span_id
        self._stack.append([span_id, job_id, name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, job_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][4] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, job_id, name, start, end))
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child

    def top(self) -> str | None:
        return self._stack[-1][2] if self._stack else None

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as a span called ``name``; ``on_result(args, result)``
        may turn the return value into counters."""

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, fn):
        """``fn`` with a call counter and no span."""

        def counted(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def count_yields(self, suffix: str, fn):
        """Generator ``fn`` whose items are counted against the innermost
        open span, as ``<span name>.<suffix>``."""

        def counted(*args, **kwargs):
            key = f"{self.top()}.{suffix}"
            for item in fn(*args, **kwargs):
                self.counters[key] += 1
                yield item

        counted.__wrapped__ = fn
        return counted

    def write(self, path: Path, meta: dict) -> None:
        """All spans as gzipped JSON; times in microseconds from the first span."""
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[4] for s in self.spans), default=0.0)
        rows = [
            [sid, parent, job, index[name], round((start - t0) * 1e6), round((end - start) * 1e6)]
            for sid, parent, job, name, start, end in self.spans
        ]
        doc = {
            **meta,
            "columns": ["span_id", "parent_id", "job_id", "name", "start_us", "duration_us"],
            "names": names,
            "spans": rows,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _rc2_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "rc2" or name.startswith("rc2.")]


def _replace_everywhere(original, replacement, modules, undo: list) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Wrap rc2's layer functions with ``tracer``; returns an undo callable."""
    import rc2.cli
    import rc2.coloring
    import rc2.ears
    import rc2.graphs
    import rc2.menger
    import rc2.minimalize
    import rc2.oracle
    import rc2.verify

    modules = _rc2_modules()
    undo: list = []
    c = tracer.counters

    def minimalized(args, h):
        g = args[0]
        c["minimalize.edges_in"] += g.edge_count
        c["minimalize.edges_removed"] += g.edge_count - h.edge_count

    def decomposed(args, dec):
        c["ears.count"] += len(dec.ears)
        c["ears.repair_exchanges"] += dec.repair_exchanges

    def colored(args, result):
        c[f"coloring.jobs.{result.strategy}"] += 1
        if result.trace is not None:
            c["coloring.trace_steps"] += len(result.trace)

    def replayed(args, report):
        c["verify.replay.levels"] += dict(report.witnesses).get("levels_checked", 0)

    everywhere = [
        ("graphs.is_two_connected", rc2.graphs.is_two_connected, None),
        ("minimalize", rc2.minimalize.spanning_minimally_two_connected, minimalized),
        ("ears", rc2.ears.build_ear_decomposition, decomposed),
        ("menger", rc2.menger.two_fan_to_subgraph, None),
        ("coloring", rc2.coloring.color_rc2, colored),
        ("verify.a1", rc2.verify.is_rainbow_two_connected, None),
        ("verify.replay", rc2.verify.check_induction_invariants, replayed),
        ("oracle", rc2.oracle.brute_force_rc2, None),
        ("oracle.census", rc2.oracle.census_small_graphs, None),
        ("cli", rc2.cli.main, None),
    ]
    for name, fn, hook in everywhere:
        _replace_everywhere(fn, tracer.wrap(name, fn, hook), modules, undo)

    # Parsing as the CLI calls it; the library's own uses are not user input.
    for fn in (rc2.graphs.graph_from_json, rc2.graphs.parse_edge_list):
        _replace_everywhere(fn, tracer.wrap("graphs.parse", fn), [rc2.cli], undo)

    # Counted at the one call site each counter is defined by.
    _replace_everywhere(
        rc2.graphs.is_two_connected_sub,
        tracer.count("minimalize.connectivity_tests", rc2.graphs.is_two_connected_sub),
        [rc2.minimalize],
        undo,
    )
    _replace_everywhere(
        rc2.verify.has_two_internally_disjoint_rainbow_paths,
        tracer.count("verify.pairs_checked", rc2.verify.has_two_internally_disjoint_rainbow_paths),
        [rc2.verify],
        undo,
    )
    _replace_everywhere(
        rc2.verify.enumerate_rainbow_paths,
        tracer.count_yields("rainbow_paths", rc2.verify.enumerate_rainbow_paths),
        [rc2.verify],
        undo,
    )

    graph_cls = rc2.graphs.Graph
    index_cls = rc2.verify.RainbowIndex
    for cls, attr, replacement in (
        (graph_cls, "adjacency", tracer.wrap("graphs.adjacency", graph_cls.adjacency)),
        (index_cls, "__init__", tracer.wrap("oracle.index_build", index_cls.__init__)),
        (index_cls, "feasible", tracer.count("oracle.feasibility_tests", index_cls.feasible)),
    ):
        undo.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, replacement)

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def check_coverage(tracer: Tracer, workload: str) -> None:
    missing = [name for name in REQUIRED_LAYERS[workload] if tracer.calls[name] == 0]
    if missing:
        raise LayerCoverageError(
            f"traced run of {workload} recorded no calls for layer(s) {', '.join(missing)}"
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics as ``name -> (value, unit)``."""
    calls, total, own, c = tracer.calls, tracer.total_s, tracer.self_s, tracer.counters
    per = 1.0 / passes
    color_calls = sum(c[f"coloring.jobs.{s}"] for s in STRATEGIES)
    out = {
        "cli.self_s": (own["cli"] * per, "s"),
        "graphs.parse_s": (total["graphs.parse"] * per, "s"),
        "graphs.is_two_connected.calls": (calls["graphs.is_two_connected"] * per, "count"),
        "graphs.is_two_connected.s": (total["graphs.is_two_connected"] * per, "s"),
        "graphs.adjacency.calls": (calls["graphs.adjacency"] * per, "count"),
        "graphs.adjacency.s": (total["graphs.adjacency"] * per, "s"),
        "minimalize.self_s": (own["minimalize"] * per, "s"),
        "minimalize.edges_in": (c["minimalize.edges_in"] * per, "count"),
        "minimalize.edges_removed": (c["minimalize.edges_removed"] * per, "count"),
        "minimalize.connectivity_tests": (c["minimalize.connectivity_tests"] * per, "count"),
        "minimalize.removed_per_test": (
            _ratio(c["minimalize.edges_removed"], c["minimalize.connectivity_tests"]), "ratio"),
        "ears.self_s": (own["ears"] * per, "s"),
        "ears.count": (c["ears.count"] * per, "count"),
        "ears.repair_exchanges": (c["ears.repair_exchanges"] * per, "count"),
        "menger.fan_calls": (calls["menger"] * per, "count"),
        "menger.self_s": (own["menger"] * per, "s"),
        "menger.s_per_fan": (_ratio(own["menger"], calls["menger"]), "s"),
        "coloring.self_s": (own["coloring"] * per, "s"),
        "coloring.trace_steps": (c["coloring.trace_steps"] * per, "count"),
        **{
            f"coloring.jobs.{s}": (_ratio(c[f"coloring.jobs.{s}"], color_calls), "ratio")
            for s in STRATEGIES
        },
        "verify.a1.self_s": (own["verify.a1"] * per, "s"),
        "verify.pairs_checked": (c["verify.pairs_checked"] * per, "count"),
        "verify.rainbow_paths": (c["verify.a1.rainbow_paths"] * per, "count"),
        "verify.paths_per_pair": (
            _ratio(c["verify.a1.rainbow_paths"], c["verify.pairs_checked"]), "paths/pair"),
        "verify.replay.self_s": (own["verify.replay"] * per, "s"),
        "verify.replay.levels": (c["verify.replay.levels"] * per, "count"),
        "oracle.self_s": (own["oracle"] * per, "s"),
        "oracle.index_build_s": (total["oracle.index_build"] * per, "s"),
        "oracle.feasibility_tests": (c["oracle.feasibility_tests"] * per, "count"),
        "oracle.census.self_s": (own["oracle.census"] * per, "s"),
    }
    return out
