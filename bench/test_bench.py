"""Smoke tests of the benchmark at tiny problem sizes.

Run from the repository root with ``python -m pytest bench``.  Every
workload must emit each metric BENCHMARK.json names, with its unit, and the
self times of a traced call must add up to the call's root span.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def workdir():
    base = ROOT / ".bench_run"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


def test_spec_lists_every_workload_and_layer_metric():
    assert sorted(NAMES) == sorted(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layers.METRICS


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, section):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace == 0:
        text = "\n".join(lines)
        assert "fail_ratio  = 0 " in text and "calls, min" in text
        assert ("heat_l1" in text) == (name == "grid-fbm-d2")
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_self_times_sum_to_root_span(name, workdir, monkeypatch):
    monkeypatch.setenv("RSLV_LAB_THREADS", "2")
    wl = WORKLOADS[name](5, "tiny", str(workdir))
    originals = {(m, p): _lookup(m, p) for m, p, _, _ in layers.TARGETS}
    tracer = Tracer()
    wl.reset()
    with tracer.installed(layers.TARGETS), tracer.span(layers.ROOT):
        code = wl.call()
    assert wl.check(code).ok
    assert tracer.absent == []
    assert {(m, p): _lookup(m, p) for m, p, _, _ in layers.TARGETS} == originals

    selfs = tracer.self_times()
    by_id = {s.id: s for s in tracer.spans}
    tops = [s for s in tracer.spans
            if s.parent is None or by_id[s.parent].thread != s.thread]
    assert [s.name for s in tops if s.parent is None] == [layers.ROOT]
    for top in tops:
        subtree = _same_thread_subtree(tracer.spans, top)
        assert sum(selfs[s.id] for s in subtree) == pytest.approx(top.duration, abs=1e-9)
    assert all(v >= -1e-9 for v in selfs.values())
    values = layers.per_layer(tracer, 1, 2)
    assert values[f"{_main_span(name)}.calls"] >= 1
    if name == "condition-c":
        assert values["condition_c.chunk.calls"] >= 2
        assert 0 < values["condition_c.parallel_efficiency"] <= 1.0


def test_missing_target_is_reported_absent():
    tracer = Tracer()
    targets = [("rslv_lab.cli", "no_such_name", "x", None),
               ("rslv_lab.no_such_module", "f", "y", None)]
    with tracer.installed(targets):
        pass
    assert tracer.absent == ["rslv_lab.cli.no_such_name", "rslv_lab.no_such_module.f"]


def test_fails_without_the_program(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(ROOT / "bench", workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=workdir)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _lookup(module_name, path):
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


def _same_thread_subtree(spans, top):
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out, todo = [], [top]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(c for c in children.get(s.id, []) if c.thread == top.thread)
    return out


def _main_span(name):
    return {"grid-fbm-d2": "fokker_planck.solve", "grid-rslv-d5": "dupire.VolSurface.sigma",
            "particles-rslv": "particles.cond_expect_f2",
            "condition-c": "condition_c.grid_search_diag"}[name]
