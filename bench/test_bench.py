"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from paulidiag import cli  # noqa: E402
from tracing import Span, Tracer, layer_self_times, self_times  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A scratch checkout root: start points are written relative to it."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_self_time_on_hand_built_span_tree():
    # run [0, 10] holds a [1, 4] and b [3, 6] (overlapping: union 5) and c [8, 12],
    # which runs past the parent's end and only counts up to 10; a holds d [2, 3]
    spans = [
        Span(0, "bench.run", 0.0, 10.0, None, "r"),
        Span(1, "operators.a", 1.0, 4.0, 0, "r"),
        Span(2, "cost.b", 3.0, 6.0, 0, "r"),
        Span(3, "cost.c", 8.0, 12.0, 0, "r"),
        Span(4, "optimize.d", 2.0, 3.0, 1, "r"),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0}
    assert layer_self_times(spans) == {"bench": 3.0, "operators": 2.0, "cost": 7.0,
                                       "optimize": 1.0}


def test_tracer_nests_spans_and_restores_attributes():
    class Owner:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Owner.__dict__["outer"]
    tracer = Tracer("t")
    tracer.wrap(Owner, "outer", "cost.outer")
    tracer.wrap(Owner, "inner", "cost.inner")
    tracer.count(Owner, "inner", "inner_calls")
    assert Owner().outer() == 2
    tracer.restore()
    assert Owner.__dict__["outer"] is original
    inner, outer = tracer.spans
    assert (outer.name, outer.parent) == ("cost.outer", None)
    assert (inner.name, inner.parent) == ("cost.inner", outer.id)
    assert tracer.counts["inner_calls"] == 1


def test_unreachable_target_is_counted_in_fail_ratio(workdir, monkeypatch):
    real_config = workloads.config

    def capped(name, seed):
        cfg = real_config(name, seed)
        cfg["opt"]["max_iters"] = 3
        return cfg

    monkeypatch.setattr(pipeline, "config", capped)
    pipeline.write_start("udu10_rcd")
    rep = pipeline.run_once("udu10_rcd", 1, workdir / "rep")
    assert rep["stop_reason"] == "max_iters"
    assert any("not reached" in f for f in rep["failures"])
    counts = run.tally([rep], {"failures": []})
    assert (counts["attempted"], counts["failed"]) == (2, 1)


def test_metric_names_are_well_formed(workdir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    declared += [w["name"] for w in spec["workloads"]]
    assert all(NAME_RE.fullmatch(name) for name in declared)
    assert len(declared) == len(set(declared))

    pipeline.write_start("udu10_rcd")
    tracer = Tracer("names")
    pipeline.install_probes(tracer)
    try:
        rep = pipeline.run_once("udu10_rcd", 1, workdir / "rep", tracer)
    finally:
        tracer.restore()
    rep["traced"] = True
    untraced = dict(rep, traced=False)
    emitted = set(run.e2e_values([untraced])) | set(run.layer_values("udu10_rcd", [rep, untraced]))
    assert all(NAME_RE.fullmatch(name) for name in emitted)
    assert emitted == {m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_seed_changes_the_instance(name, workdir):
    pipeline.write_start(name)

    def start_point(seed):
        cfg = workloads.config(name, seed)
        h, u_expansion = cli.build_model(cfg["model"])
        kp0 = cli.build_initial_params(cfg, h, u_expansion)
        return cli._perturbed(kp0, cfg["init"]["perturb"], cfg["init"]["seed"])

    assert not np.array_equal(start_point(1).r, start_point(2).r)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "udu10_rcd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
