"""Outside-in tracing of driftmap's layers.

Spans come only from this file: public functions are replaced by timing
wrappers at the names where their callers look them up (driftmap modules
import each other by name, so ``driftmap.measures.estimate_conditional``
and ``driftmap.maps.estimate_conditional`` are two separate call points).
Spans of one iteration are folded into a calling-context tree keyed by
span name, so a layer's self time is its spans' time minus the time of
the spans nested directly inside them. Wrappers are installed only in a
traced process; untraced runs never import this module.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (metric, unit); the order is the order of the printed result
LAYER_METRICS = (
    ("schema.ingest_s", "s"), ("schema.records", "count"),
    ("discretize.fit_s", "s"), ("discretize.apply_s", "s"),
    ("estimate.calls", "count"), ("estimate.self_s", "s"), ("estimate.rows", "count"),
    ("estimate.support", "count"), ("estimate.members", "count"),
    ("measures.calls", "count"), ("measures.self_s", "s"),
    ("measures.distance_calls", "count"), ("measures.distance_s", "s"),
    ("measures.insufficient", "count"), ("measures.above_one", "count"),
    ("temporal.points", "count"), ("temporal.self_s", "s"), ("temporal.serialize_s", "s"),
    ("maps.grids", "count"), ("maps.cells", "count"), ("maps.self_s", "s"),
    ("maps.serialize_s", "s"),
    ("render.calls", "count"), ("render.s", "s"), ("render.svg_bytes", "bytes"),
    ("cli.commands", "count"), ("cli.self_s", "s"),
    ("cli.files_written", "count"), ("cli.bytes_written", "bytes"),
)

_MEASURES = ("measures.marginal_drift", "measures.conditioned_covariate_drift",
             "measures.posterior_drift")
_MAP_BUILDERS = ("maps.pairwise_joint_map", "maps.conditioned_univariate_map",
                 "maps.conditioned_pairwise_map", "maps.posterior_pairwise_map")


class Node:
    """All spans with one name under one parent path."""

    __slots__ = ("calls", "total", "children")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.children: dict[str, Node] = {}

    def walk(self, name="iteration", depth=0):
        yield name, depth, self
        for child_name, child in self.children.items():
            yield from child.walk(child_name, depth + 1)

    @property
    def self_time(self) -> float:
        return self.total - sum(c.total for c in self.children.values())


class Tracer:
    """Span tree and counters of the current iteration."""

    def __init__(self):
        self.enabled = False
        self.begin()

    def begin(self) -> None:
        self.root = Node()
        self.stack = [self.root]
        self.counts: Counter = Counter()

    def span(self, name: str, fn, account=None):
        """``fn`` wrapped to record a span ``name`` and, when given, call
        ``account(counts, result)`` after the span closes."""
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self.stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node()
            self.stack.append(node)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.total += clock() - start
                node.calls += 1
                self.stack.pop()
            if account is not None:
                account(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, account=None) -> None:
        setattr(owner, attr, self.span(name, getattr(owner, attr), account))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current iteration."""
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for name, _, node in self.root.walk():
            total[name] += node.total
            own[name] += node.self_time
            calls[name] += node.calls

        def pick(table, names):
            return sum(table[n] for n in names)

        estimate = [n for n in calls if n.startswith("estimate.")]
        render = [n for n in calls if n.startswith("render.")]
        c = self.counts
        return {
            "schema.ingest_s": total["schema.ingest_records"],
            "schema.records": c["schema.records"],
            "discretize.fit_s": total["discretize.fit_discretizer"],
            "discretize.apply_s": total["discretize.apply_discretizer"],
            "estimate.calls": pick(calls, estimate),
            "estimate.self_s": pick(own, estimate),
            "estimate.rows": c["estimate.rows"],
            "estimate.support": c["estimate.support"],
            "estimate.members": c["estimate.members"],
            "measures.calls": pick(calls, _MEASURES),
            "measures.self_s": pick(own, _MEASURES + ("measures.compute_drift",)),
            "measures.distance_calls": calls["measures.distance"],
            "measures.distance_s": total["measures.distance"],
            "measures.insufficient": c["measures.insufficient"],
            "measures.above_one": c["measures.above_one"],
            "temporal.points": c["temporal.points"],
            "temporal.self_s": pick(own, ("temporal.drift_series", "temporal.series_statistics")),
            "temporal.serialize_s": pick(total, ("temporal.to_csv", "temporal.to_json")),
            "maps.grids": c["maps.grids"],
            "maps.cells": c["maps.cells"],
            "maps.self_s": pick(own, _MAP_BUILDERS),
            "maps.serialize_s": pick(total, ("maps.to_csv", "maps.to_json")),
            "render.calls": pick(calls, render),
            "render.s": pick(total, render),
            "render.svg_bytes": c["render.svg_bytes"],
            "cli.commands": calls["cli.run_cli"],
            "cli.self_s": own["cli.run_cli"],
            "cli.files_written": c["cli.files_written"],
            "cli.bytes_written": c["cli.bytes_written"],
        }

    def tree_lines(self) -> list[str]:
        """The span tree: calls, total and self seconds per node, leaving
        out nodes under 0.1% of the iteration's time."""
        root_total = sum(c.total for c in self.root.children.values()) or 1.0
        lines = []
        for name, depth, node in self.root.walk():
            if depth and node.total / root_total >= 0.001:
                lines.append(f"{'  ' * (depth - 1)}{name}: calls={node.calls} "
                             f"total={node.total:.4f}s self={node.self_time:.4f}s")
        return lines


# --- what each wrapped call adds to the counters -------------------------

def _records(counts, raw):
    counts["schema.records"] += len(raw)


def _estimate(counts, est):
    counts["estimate.rows"] += est.sample_size
    counts["estimate.support"] += len(est.support)


def _family(counts, fam):
    counts["estimate.rows"] += fam.sample_size
    counts["estimate.members"] += len(fam.members)
    counts["estimate.support"] += sum(len(inner.support) for _, inner in fam.members.values())


def _measurement(counts, m):
    counts["measures.insufficient"] += not m.ok
    counts["measures.above_one"] += m.magnitude is not None and m.magnitude > 1.0


def _series(counts, series):
    counts["temporal.points"] += len(series)


def _grids(counts, result):
    grids = result if isinstance(result, list) else [result]
    counts["maps.grids"] += len(grids)
    counts["maps.cells"] += sum(len(g.row_labels) * len(g.col_labels) for g in grids)


def _svg(counts, svg):
    counts["render.svg_bytes"] += len(svg.encode())


def install(tracer: Tracer, dm) -> None:
    """Wrap every call point of the eight layers."""
    schema, discretize, measures, temporal, maps, render, cli = (
        dm.schema, dm.discretize, dm.measures, dm.temporal, dm.maps, dm.render, dm.cli)
    for owner in (schema, cli):
        tracer.patch(owner, "ingest_records", "schema.ingest_records", _records)
    for owner in (discretize, cli):
        tracer.patch(owner, "fit_discretizer", "discretize.fit_discretizer")
        tracer.patch(owner, "apply_discretizer", "discretize.apply_discretizer")
    tracer.patch(measures, "estimate_distribution", "estimate.estimate_distribution", _estimate)
    for owner in (measures, maps):
        tracer.patch(owner, "estimate_conditional", "estimate.estimate_conditional", _family)
    for owner in (temporal, cli):
        tracer.patch(owner, "compute_drift", "measures.compute_drift")
    for attr in ("marginal_drift", "conditioned_covariate_drift", "posterior_drift"):
        tracer.patch(measures, attr, f"measures.{attr}", _measurement)
    for attr in ("marginal_drift", "posterior_drift"):
        tracer.patch(maps, attr, f"measures.{attr}", _measurement)
    for owner in (measures, maps):
        distance_function = owner.distance_function

        def traced_distance_function(kind, _original=distance_function):
            return tracer.span("measures.distance", _original(kind))

        owner.distance_function = traced_distance_function
    for owner in (temporal, cli):
        tracer.patch(owner, "drift_series", "temporal.drift_series", _series)
        tracer.patch(owner, "series_statistics", "temporal.series_statistics")
    for attr in ("to_csv", "to_json"):
        tracer.patch(temporal.DriftSeries, attr, f"temporal.{attr}")
        tracer.patch(maps.HeatMapGrid, attr, f"maps.{attr}")
    for attr in ("pairwise_joint_map", "conditioned_univariate_map",
                 "conditioned_pairwise_map", "posterior_pairwise_map"):
        tracer.patch(maps, attr, f"maps.{attr}", _grids)
    for owner in (render, cli):
        tracer.patch(owner, "render_lineplot", "render.render_lineplot", _svg)
        tracer.patch(owner, "render_heatmap", "render.render_heatmap", _svg)
    tracer.patch(cli, "run_cli", "cli.run_cli")
