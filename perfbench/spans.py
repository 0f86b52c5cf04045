"""Span tracing around causalgen's public functions, applied from outside.

`Tracer.installed()` swaps selected module attributes of causalgen, and the
graph-algebra methods of its `Admg` class, for wrappers that record one span
per call and restores the originals afterwards, so nothing under `src/`
changes. A span carries its layer (the causalgen module the
function belongs to), start, end, parent span, operation id and the counts read
from the call's arguments and return value. Spans are kept in memory and
aggregated when the run ends.

Only calls made while an operation is open on the calling thread are recorded:
the benchmark's own checks and the program's worker threads leave no spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from causalgen import cli, engine, identify, scm
from causalgen.graphs import Admg


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    op: int
    layer: str
    probe: Probe | None
    start: float = 0.0
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Probe:
    """Where to wrap (a module or class and an attribute name), which layer the
    calls belong to and what they report.

    `time_metric` receives the span's duration, or only its self time when
    `self_only` is set; `counts` maps the bound arguments and the result to
    count metrics."""

    layer: str
    targets: tuple[tuple[object, str], ...]
    time_metric: str | None = None
    counts: Callable[[dict, object], dict[str, float]] | None = None
    self_only: bool = False


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if p is not None and Path(p).exists())


def _identify_counts(args, result):
    return {"identify.steps": len(result.trace), "identify.hedges": int(not result.identifiable)}


def _build_counts(args, result):
    s7 = sum(1 for e in result.trace if e.step == "S7")
    source = args["source"]
    rows = source.dataset.n if isinstance(source, engine.DatasetSource) else 0
    return {
        "engine.build_calls": 1,
        "engine.build_steps": len(result.trace),
        "engine.build_s7": s7,
        "engine.build_rows_regenerated": s7 * rows * args["dprime_mult"],
    }


def _fit_counts(args, result):
    return {"engine.build_models": 1, "engine.build_cpt_cells": result.table.size}


def _oracle_counts(args, result):
    m = args["m"]
    sizes = [p.shape[0] for p in m.noise.values()] + [p.shape[0] for p in m.latents.values()]
    return {"scm.oracle_calls": 1, "scm.oracle_exo_states": math.prod(sizes)}


# the Admg methods that identify and build_network call on each recursion step
GRAPH_ALGEBRA = (
    "ancestors", "c_components", "remove_incoming", "remove_outgoing",
    "induced_subgraph", "topological_order", "d_separated", "latent_pairs",
)

PROBES = (
    Probe("cli", ((cli, "main"),)),
    Probe("graphs", ((cli, "parse_graph"), (scm, "parse_graph")), "graphs.parse_graph_s"),
    # self time, since d_separated calls latent_pairs
    Probe("graphs", tuple((Admg, name) for name in GRAPH_ALGEBRA), "graphs.algebra_s", self_only=True),
    Probe(
        "identify",
        ((identify, "identify_effect"), (identify, "identify_conditional_effect")),
        "identify.s",
        _identify_counts,
    ),
    Probe("estimands", ((cli, "evaluate_estimand"),), "estimands.evaluate_s"),
    Probe("engine", ((engine, "build_network"),), "engine.build_s", _build_counts),
    Probe("engine", ((engine, "build_conditional_sampler"),), "engine.build_conditional_s"),
    Probe(
        "engine",
        ((engine, "sample_interventional"),),
        "engine.sample_s",
        lambda args, result: {"engine.sample_rows": args["n"]},
    ),
    Probe("engine", ((engine, "format_network"),), "engine.format_network_s"),
    # engine binds the fitting functions at import; these are its fits during a build
    Probe("models", ((engine, "fit_conditional"), (engine, "exact_conditional")), "models.fit_s", _fit_counts),
    Probe(
        "models",
        ((cli, "read_dataset_csv"),),
        "models.read_csv_s",
        lambda args, result: {"models.read_csv_bytes": _file_bytes(args["path"], args["sidecar"])},
    ),
    Probe(
        "models",
        ((cli, "write_dataset_csv"),),
        "models.write_csv_s",
        lambda args, result: {"models.write_csv_bytes": _file_bytes(args["path"], args["sidecar"])},
    ),
    Probe("scm", ((scm, "exact_joint"), (scm, "exact_interventional")), "scm.oracle_s", _oracle_counts),
    # the SCM constructor's validating enumeration is an oracle child span
    Probe("scm", ((scm, "read_scm"),), "scm.read_scm_s", self_only=True),
    Probe(
        "scm",
        ((scm, "sample_observational"),),
        "scm.sample_observational_s",
        lambda args, result: {"scm.sample_observational_rows": args["n"]},
    ),
    Probe("scm", ((scm, "tvd"), (scm, "empirical_distribution")), "scm.score_s"),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self):
        """Open the root span of one benchmark operation; yields its op id."""
        stack = self._stack()
        span_id = next(self._ids)
        span = Span(span_id, None, span_id, "bench", None)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span_id
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def _wrap(self, probe: Probe, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = Span(next(self._ids), parent.id, parent.op, probe.layer, probe)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if probe.counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = probe.counts(bound.arguments, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for probe in PROBES:
                for owner, name in probe.targets:
                    original = getattr(owner, name)
                    saved.append((owner, name, original))
                    setattr(owner, name, self._wrap(probe, original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)


def layer_metrics(spans: list[Span], op_ids) -> dict[str, float]:
    """Per-operation means of every traced quantity over the given operations.

    A span's self time is its duration minus the time its child spans cover;
    `<layer>.self_s` and `<layer>.calls` sum self time and spans per layer, and
    `bench.op_s` is the mean operation latency under tracing."""
    ops = set(op_ids)
    chosen = [s for s in spans if s.op in ops]
    child_time: dict[int, float] = defaultdict(float)
    for s in chosen:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, float] = defaultdict(float)
    for s in chosen:
        duration = s.end - s.start
        if s.probe is None:
            totals["bench.op_s"] += duration
            continue
        own = duration - child_time[s.id]
        totals[f"{s.layer}.self_s"] += own
        totals[f"{s.layer}.calls"] += 1
        if s.probe.time_metric:
            totals[s.probe.time_metric] += own if s.probe.self_only else duration
        for key, value in s.counts.items():
            totals[key] += value
    out = {key: value / len(ops) for key, value in totals.items()}
    if out.get("engine.sample_s"):
        out["engine.sample_rows_per_s"] = out["engine.sample_rows"] / out["engine.sample_s"]
    return out
