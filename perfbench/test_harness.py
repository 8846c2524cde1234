"""Smoke tests of the benchmark harness itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from mmminfer import mmm, mvdist, simulate  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings():
    """Every (module, name) -> object binding of the package's modules."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.startswith("mmminfer")
        for attr, value in vars(module).items()
    }


def test_tracer_restores_every_binding():
    before = _bindings()
    original_rect, original_corr = simulate.mv_rect_prob, mvdist.CorrelationMatrix
    with tracing.Tracer():
        assert simulate.mv_rect_prob is not original_rect
        assert mmm.mv_rect_prob is not original_rect
        assert isinstance(mmm.CorrelationMatrix.identity(2), original_corr)
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_self_times_sum_to_traced_wall():
    workload = workloads.Fwer({"a3": 4, "a4": 3, "a5-any": 2}, seed=3)
    tracer = tracing.Tracer()
    with tracer:
        root = tracer.open(tracing.ROOT)
        workload.op(1)
        tracer.close(root)
    metrics = {name: entry["value"] for name, entry in tracer.metrics(0.0).items()}
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    self_total = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["simulate.run.calls"] == 3
    assert metrics["simulate.generate.calls"] == 9
    assert metrics["mvdist.rect_gl.calls"] > 0 and metrics["mvdist.rect_qmc.calls"] > 0
    assert metrics["simulate.decision.rect_per_decision"] >= 1.0


def test_fwer_outputs_repeat_and_are_checked():
    workload = workloads.Fwer({"a3": 6, "a6-any": 2}, seed=5)
    first, again, other = workload.op(1), workload.op(1), workload.op(2)
    assert first == again and first["seed"] != other["seed"]
    assert workload.check(first) == []
    assert workload.check_run([first, other]) == []
    a3 = first["rejections"]["a3"]
    a3["bonferroni"] = a3["noadjust"] + 1
    assert workload.check(first) == ["a3 bonferroni rejects more than noadjust"]
    a3.update(dict.fromkeys(a3, 6))
    a6 = first["rejections"]["a6-any"]
    a6.update(dict.fromkeys(a6, 0), noadjust=2, **{"mmm.dfind": 2})
    failures = workload.check_run([first] * 50)
    # a3 is held to its published table, a6-any only to the nominal level
    assert {f.split(" (")[0] for f in failures} == {
        *(f"a3 {m} 1.0000 vs {workload.reference['a3'][workloads.PUBLISHED_COLUMN.get(m, m)]:.4f}" for m in a3),
        "a6-any mmm.dfind 1.0000 vs 0.0500",
    }


def test_averroes_check_flags_a_changed_decision():
    loose = mvdist.QuadratureSettings(target_abs_error=1e-3, max_samples=20_000, shifts=4)
    workload = workloads.Averroes(seed=1, settings=loose)
    output = workload.op(1)
    assert not any(p.startswith("layout") for p in workload.check(output))
    cell = output["hypotheses"][1]["methods"]["mmm"]
    cell["rejected"] = not cell["rejected"]
    assert any("decision" in p for p in workload.check(output))


def test_cell_tolerance_shrinks_with_replicates():
    assert workloads.cell_tolerance(0.05, 100) > workloads.cell_tolerance(0.05, 10_000)
    assert workloads.cell_tolerance(0.05, 10_000) == pytest.approx(
        4.0 * math.sqrt(0.0475 * 2e-4)
    )


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_run_prints_every_end_to_end_metric():
    proc = _run(ROOT, "--workload", "fwer_lowdim", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_run_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "fwer_lowdim", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
