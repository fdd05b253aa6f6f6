"""Checks of the benchmark itself: determinism, bypass predictions, answers.

    python3 -m pytest perfbench -q

Each workload runs once untraced and twice traced at one seed, with the
shortest pass count, so the module takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5  # a tuning seed; the held-out seed in NOTES.md stays unused here
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import spans  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module", params=[w["name"] for w in BENCHMARK["workloads"]])
def runs(request):
    """(result, record) of one untraced and two traced runs of a workload."""
    out = []
    for trace in (0, 1, 1):
        proc = _run(request.param, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        record_file = HERE / "out" / f"run-{request.param}-seed{SEED}-trace{trace}.json"
        out.append((result, json.loads(record_file.read_text())))
    return request.param, out


def test_every_metric_reported_and_answers_right(runs):
    _, [(plain, _), (traced, _), _] = runs
    assert set(plain["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_per_layer_counts_repeat_exactly(runs):
    _, [_, (first, _), (second, _)] = runs
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "ratio")]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }


def test_bypass_predictions(runs):
    workload, [_, (traced, _), _] = runs
    value = {name: m["value"] for name, m in traced["metrics"].items()}
    if workload == "winding_h":
        assert value["oracle._cell_points.calls"] == 0
        assert value["linalg.solve_mod.calls"] == 0
    if workload == "oracle_flags":
        assert value["hypothesis_h.check_hypothesis_h.calls"] == 0
    if workload != "winding_h":
        assert value["oracle._cell_points.points"] > 0


def test_traced_answers_equal_untraced(runs):
    _, [(_, plain), (_, traced), (_, again)] = runs
    assert plain["answers_sha256"] == traced["answers_sha256"] == traced["traced_answers_sha256"]
    assert traced["traced_answers_sha256"] == again["traced_answers_sha256"]


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("winding_h", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children():
    def leaf():
        return sum(range(20000))

    ns = SimpleNamespace(leaf=leaf)
    ns.outer = lambda: [ns.leaf() for _ in range(3)]
    tracer = spans.Tracer()
    tracer.wrap(ns, "leaf", "leaf")
    tracer.wrap(ns, "outer", "outer")
    try:
        ns.outer()
    finally:
        tracer.restore()
    assert ns.leaf is leaf
    assert tracer.calls == {"leaf": 3, "outer": 1}
    self_s = tracer.self_seconds()
    outer = [i for i in range(len(tracer.start)) if tracer.names[tracer.name[i]] == "outer"][0]
    duration = tracer.end[outer] - tracer.start[outer]
    assert self_s["outer"] + self_s["leaf"] == pytest.approx(duration)
