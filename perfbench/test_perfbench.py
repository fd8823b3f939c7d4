"""The benchmark's own tests (about a minute):

    python3 -m pytest -q perfbench/test_perfbench.py

They check that BENCHMARK.json names exactly the metrics run.py prints,
that an untraced run prints every end-to-end metric with its unit, that a
traced run's counts repeat exactly for a fixed seed, and that each workload
exercises only the layers it was chosen for. The table workloads are
shortened to their two cheapest tables.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def counts(values: dict) -> dict:
    """The per-layer values that must repeat exactly for a seed: all but the times."""
    return {n: v for n, v in values.items() if not n.endswith("_s")}


def values(result: dict) -> dict:
    return {n: m["value"] for n, m in result["metrics"].items()}


@pytest.fixture
def short_run(monkeypatch):
    monkeypatch.setattr(run, "WALTON_TABLES", (("B2", 4), ("D5", 1)))
    monkeypatch.setattr(run, "KACWALTON_TABLES", (("B2", 4), ("D5", 1)))
    golden = json.loads((run.BENCH / "golden.json").read_text(encoding="utf-8"))
    run.SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="test-", dir=run.SCRATCH))

    def traced(workload: str) -> dict:
        r = run.Run(workload, 7, Path(tempfile.mkdtemp(dir=tmp)), golden)
        metrics, _ = run.measure_per_layer(r)
        assert r.failed == 0, r.errors
        got = {n: m["value"] for n, m in metrics.items()}
        got["linalg.outside_build_root_system"] = run.layer_metrics(r.traced_jobs)[
            "linalg.outside_build_root_system"
        ]
        return got

    yield traced
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        run.SCRATCH.rmdir()
    except OSError:
        pass


def test_benchmark_json_matches_the_metrics_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.PASSES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit():
    lines, result = bench("--workload", "point_queries", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 240
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0
        assert any(line.startswith(f"{name} ") and f" {metric['unit']} " in line for line in lines)
    for name, unit in (("query_p50_ms", "ms"), ("query_p90_ms", "ms"), ("fail_frac", "ratio")):
        assert any(line.startswith(f"{name} ") and f" {unit} " in line for line in lines)


def test_traced_counts_repeat_exactly_for_a_seed():
    args = ("--workload", "point_queries", "--seed", "5", "--seconds", "1", "--trace", "1")
    lines, first = bench(*args)
    _, second = bench(*args)
    assert {n: m["unit"] for n, m in first["metrics"].items()} == run.per_layer_units()
    for name, metric in first["metrics"].items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {metric['unit']}") for line in lines)
    assert counts(values(first)) == counts(values(second))
    got = values(first)
    assert got["fusion.fusion_coefficient.calls"] == 240
    assert got["repspace.build_module.calls"] > 0
    assert all(got[f"cache.{fn}.calls"] == 0 for fn in ("load_table", "store_table"))


def test_table_workloads_touch_only_their_layers(short_run):
    walton = short_run("walton_tables")
    assert all(v == 0 for n, v in walton.items() if n.startswith("tensor.") and n.endswith(".calls"))
    assert walton["cache.store_table.calls"] == 2
    assert walton["cache.load_table.hit_ratio"] == pytest.approx(2 * run.WARM_REPEATS / (2 + 2 * run.WARM_REPEATS))
    assert walton["cache.load_table.bytes"] == run.WARM_REPEATS * walton["cache.store_table.bytes"]

    kacwalton = short_run("kacwalton_tables")
    assert all(v == 0 for n, v in kacwalton.items() if n.startswith("repspace.") and n.endswith(".calls"))
    assert kacwalton["linalg.inverse.calls"] == 2  # one Cartan inverse per type
    assert kacwalton["linalg.outside_build_root_system"] == 0
    assert kacwalton["rootdata.weyl_elements.elements"] == 8 + 1920
    assert kacwalton["tensor.tensor_multiplicity.weyl_terms"] > 0
    assert counts(short_run("kacwalton_tables")) == counts(kacwalton)


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
