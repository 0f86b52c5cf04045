"""The benchmark's workloads: inputs, one pass of operations, and the checks.

Each workload builds its inputs from the seed in `setup`, then hands the closed
loop one pass of operations at a time. Every pass repeats the same operations
with the same seeds, so every pass must produce the same outputs. An operation
is a call into causalgen from outside, either `causalgen.cli.main` in-process
or the public library functions; its check runs outside the timed call and
returns None when the output is correct, else the reason it is not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from causalgen import cli, engine, identify, scm
from causalgen.estimands import DistTable
from causalgen.models import read_dataset_csv

import inputs


@dataclass(frozen=True)
class Op:
    kind: str  # operations of one kind do the same work; tails are taken per kind
    run: Callable[[], object]
    check: Callable[[object], str | None]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """Base: subclasses set `name` and implement `setup` and `pass_ops`, and
    `write_inputs` when their operations read input files."""

    name = ""
    metrics_per_kind = False  # also report per-layer metrics per kind, suffixed .<kind>
    writes_inputs = False  # whether `write_inputs` writes anything

    def __init__(self):
        # worst TVD against the oracle per kind: fitted-source and exact-source estimates
        self.tvd: dict[str, float] = {}
        self.tvd_exact: dict[str, float] = {}

    def write_inputs(self, workdir: Path, seed: int) -> None:
        """Write the input files the operations read. It runs in a child
        process, so its memory does not count in the loop's peak RSS."""

    def setup(self, workdir: Path, seed: int) -> None:
        """Build the in-memory state the operations need, after `write_inputs`."""
        raise NotImplementedError

    def pass_ops(self) -> list[Op]:
        raise NotImplementedError

    def record(self, kind: str, fitted: float, exact: float | None = None):
        self.tvd[kind] = max(self.tvd.get(kind, 0.0), fitted)
        if exact is not None:
            self.tvd_exact[kind] = max(self.tvd_exact.get(kind, 0.0), exact)


def _eval_rows(stdout: str) -> list[tuple[str, str]]:
    """(fitted, exact) cells of each query row of `causalgen eval`'s table."""
    rows = []
    for line in stdout.splitlines():
        if not line.startswith("| ") or line.startswith("| query |") or line.startswith("| ---"):
            continue
        # the query label itself contains '|', so split the two numeric cells off the right
        _, fitted, exact = line.rstrip().rstrip("|").rsplit("|", 2)
        rows.append((fitted.strip(), exact.strip()))
    return rows


def _check_eval(workload: Workload, kind: str, result, queries) -> str | None:
    """Identifiable rows must be within the fitted bound and the exact sampling
    tolerance; non-identifiable rows must print HEDGE in both columns."""
    code, stdout = result
    if code != 0:
        return f"exit {code}"
    rows = _eval_rows(stdout)
    if len(rows) != len(queries):
        return f"{len(rows)} result rows for {len(queries)} queries"
    for (fitted, exact), (identifiable, k) in zip(rows, queries):
        if not identifiable:
            if (fitted, exact) != ("HEDGE", "HEDGE"):
                return f"expected HEDGE, got {fitted} / {exact}"
            continue
        if "HEDGE" in (fitted, exact):
            return "identifiable query reported as HEDGE"
        fitted_tvd, exact_tvd = float(fitted), float(exact)
        workload.record(kind, fitted_tvd, exact_tvd)
        if fitted_tvd > inputs.FITTED_TVD_BOUND:
            return f"fitted tvd {fitted_tvd} > {inputs.FITTED_TVD_BOUND}"
        bound = scm.sampling_tolerance(k, inputs.SAMPLE_ROWS)
        if exact_tvd > bound:
            return f"exact tvd {exact_tvd} > {bound:.4f}"
    return None


def _eval_argv(seed: int) -> list[str]:
    return ["--seed", str(seed), "--n", str(inputs.SAMPLE_ROWS),
            "--obs-n", str(inputs.OBS_ROWS), "--workers", "1"]


class CatalogEval(Workload):
    """`causalgen eval --catalog <entry>` for each of the six catalog entries."""

    name = "catalog_eval"

    def setup(self, workdir, seed):
        self.seed = seed
        self.entries = [
            (e.name, [(q.identifiable, inputs.target_cells(e.scm.graph, q.targets)) for q in e.queries])
            for e in scm.catalog()
        ]

    def pass_ops(self):
        ops = []
        for name, queries in self.entries:
            argv = ["eval", "--catalog", name] + _eval_argv(self.seed)
            ops.append(Op(
                name,
                lambda argv=argv: run_cli(argv),
                lambda result, name=name, queries=queries: _check_eval(self, name, result, queries),
            ))
        return ops


class ChainScaling(Workload):
    """`causalgen eval --scm chainN.scm --query q` along the chain-with-confounder family."""

    name = "chain_scaling"
    metrics_per_kind = True
    writes_inputs = True
    # n = 14 is left out: one operation takes ~17 s and 2.5 GB in the oracle,
    # more than one benchmark run can hold; n = 12 keeps the oracle dominant
    SIZES = (6, 10, 12)

    def write_inputs(self, workdir, seed):
        for n in self.SIZES:
            inputs.write_chain(workdir, n)

    def setup(self, workdir, seed):
        self.seed = seed
        self.files = {n: inputs.chain_paths(workdir, n) for n in self.SIZES}

    def pass_ops(self):
        ops = []
        for n, (scm_path, query) in self.files.items():
            kind = f"n{n}"
            argv = ["eval", "--scm", str(scm_path), "--query", str(query)] + _eval_argv(self.seed)
            ops.append(Op(
                kind,
                lambda argv=argv: run_cli(argv),
                lambda result, kind=kind: _check_eval(self, kind, result, [(True, 2)]),
            ))
        return ops


class CliSample(Workload):
    """`causalgen sample --data obs.csv --n 200000` for each identifiable catalog query."""

    name = "cli_sample"
    writes_inputs = True

    def write_inputs(self, workdir, seed):
        inputs.write_catalog_fixtures(workdir, seed)

    def setup(self, workdir, seed):
        self.seed = seed
        self.workdir = workdir
        self.fixtures = inputs.catalog_fixtures(workdir)
        self.digests: dict[str, str] = {}

    def pass_ops(self):
        ops = []
        for fx in self.fixtures:
            out = self.workdir / f"out_{fx.label}"
            argv = [
                "sample", "--graph", str(fx.graph), "--query", str(fx.query), "--data", str(fx.data),
                "--n", str(inputs.SAMPLE_ROWS), "--seed", str(self.seed), "--out", str(out),
            ]
            if not fx.spec.given:
                argv += ["--workers", "2"]  # the threaded ancestral sampler
            ops.append(Op(
                fx.label,
                lambda argv=argv: run_cli(argv),
                lambda result, fx=fx, out=out: self._check(fx, out, result),
            ))
        return ops

    def _check(self, fx: inputs.SampleFixture, out: Path, result) -> str | None:
        code, _ = result
        if code != 0:
            return f"exit {code}"
        files = [out.with_suffix(s) for s in (".csv", ".sidecar.json", ".manifest")]
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()
        if fx.label in self.digests:
            # same inputs and seed as an already verified run (C9 determinism)
            return None if self.digests[fx.label] == digest else "output differs from an identical earlier run"
        self.digests[fx.label] = digest
        return self._verify_samples(fx, files[0], files[1])

    def _verify_samples(self, fx, csv: Path, sidecar: Path) -> str | None:
        """Row count, and empirical TVD against the exact interventional law."""
        samples = read_dataset_csv(csv, sidecar)
        if samples.n != inputs.SAMPLE_ROWS:
            return f"{samples.n} rows written, expected {inputs.SAMPLE_ROWS}"
        truth = scm.exact_interventional(fx.model, fx.spec.do_map)
        if fx.spec.given:
            truth = truth.marginal(fx.spec.targets + tuple(fx.spec.given_map)).fix(fx.spec.given_map)
            truth = DistTable(truth.variables, truth.probs / truth.total())
        else:
            truth = truth.marginal(fx.spec.targets)
        dist = scm.tvd(scm.empirical_distribution(samples, truth.names), truth)
        self.record(fx.label, dist)
        if dist > inputs.FITTED_TVD_BOUND:
            return f"sample tvd {dist:.4f} > {inputs.FITTED_TVD_BOUND}"
        return None


class RandomAdmg(Workload):
    """`identify_effect` + `build_network` on random small ADMGs with 256 random rows."""

    name = "random_admg"
    INSTANCES = 2000

    def setup(self, workdir, seed):
        self.instances = inputs.random_instances(seed, self.INSTANCES)

    def pass_ops(self):
        return [Op("admg", lambda inst=inst: self._run(inst), self._check) for inst in self.instances]

    @staticmethod
    def _run(inst: inputs.AdmgInstance):
        symbolic = identify.identify_effect(inst.y, inst.x, inst.graph)
        built = engine.build_network(
            inst.y, inst.x, inst.graph, engine.DatasetSource(inst.data),
            rng=np.random.default_rng(inst.build_seed),
        )
        return symbolic, built

    @staticmethod
    def _check(result) -> str | None:
        symbolic, built = result
        steps = lambda trace: [(e.step, e.y, e.x, e.depth) for e in trace]
        if steps(symbolic.trace) != steps(built.trace):
            return "symbolic and compiled traces differ (C4)"
        if symbolic.hedge != built.hedge:
            return "symbolic and compiled hedges differ (C4)"
        if not built.identifiable:
            return None
        h = built.network
        try:
            h.validate()
        except engine.EngineError as exc:
            return f"invalid network: {exc} (C8)"
        position = {n: i for i, n in enumerate(h.global_order)}
        if any(position[a] >= position[b] for a, b in h.edges()):
            return "edge against the global order (C8)"
        return None


WORKLOADS = {w.name: w for w in (CatalogEval, ChainScaling, CliSample, RandomAdmg)}
