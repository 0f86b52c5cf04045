"""The benchmark's span tracer (`perfbench/spans.py`) wraps causalgen functions
by name and reads their arguments by name; a rename or a changed signature
would empty its metrics without failing a run, so these tests pin both."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from causalgen import engine, scm

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def test_every_probe_target_exists():
    for probe in spans.PROBES:
        for owner, name in probe.targets:
            assert callable(getattr(owner, name, None)), (owner, name)


def test_traced_build_and_oracle_report_their_counts():
    m = scm.catalog_entry("napkin").scm
    data = scm.sample_observational(m, 2000, np.random.default_rng(0))
    build_network = engine.build_network
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.op() as op:
            built = engine.build_network({"Y"}, {"X"}, m.graph, engine.DatasetSource(data), dprime_mult=1.5)
            scm.exact_joint(m)
    assert engine.build_network is build_network  # the originals are restored
    metrics = spans.layer_metrics(tracer.spans, [op])
    s7 = sum(1 for entry in built.trace if entry.step == "S7")
    assert s7 >= 1
    assert metrics["engine.build_s"] > 0 and metrics["models.fit_s"] > 0
    assert metrics["engine.build_s7"] == s7
    assert metrics["engine.build_rows_regenerated"] == s7 * 2000 * 1.5
    assert metrics["scm.oracle_calls"] == 1
