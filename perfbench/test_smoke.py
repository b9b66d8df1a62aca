"""Smoke test of the benchmark: all workloads at tiny size, every metric, every output check.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
MATCH_WORKLOADS = [w for w in WORKLOADS if w != "oracle_p3"]


def _smoke(trace: int) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--smoke", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_metric_and_passes_every_check(trace, kind):
    stdout, result = _smoke(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(WORKLOADS)
    units = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert set(result["metrics"]) == {f"{w}/{name}" for w in WORKLOADS for name in units}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key.split("/", 1)[1]]
        assert isinstance(metric["value"], (int, float))
    for w in WORKLOADS:
        assert f"{w:22} error_rate" in stdout
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if kind == "end_to_end":
        assert all(v > 0 for v in m.values())
    else:
        for w in MATCH_WORKLOADS:
            # candidates are counted from the run's levels, independently of
            # the wrapped trial calls
            assert m[f"{w}/engine.candidates"] == m[f"{w}/grouper.trial_calls"]
            assert m[f"{w}/dataset.rows"] > 0 and m[f"{w}/grouper.commit_calls"] >= 1
        assert m["oracle_p3/oracle.valid"] == 59  # p = 2 at smoke size


def test_peak_rss_is_the_childs_own():
    """The pure-Python oracle run peaks below the harness, which has imported numpy."""
    _smoke(0)
    record = json.loads((ROOT / ".perfbench" / "results" / "oracle_p3-seed0-trace0-smoke.json").read_text())
    peak = record["end_to_end"]["peak_rss_mb"]["median"]
    assert 0 < peak < record["harness_peak_rss_mb"]


def test_oracle_check_rejects_a_wrong_valid_count(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # dataclasses look their module up there
    spec.loader.exec_module(run)
    bench = run.Bench(run.WORKLOADS["oracle_p3"], seed=0, smoke=True, rundir=tmp_path)
    report = {"p": 2, "valid_count": 59, "entries": []}
    bench.reports[0].write_text(json.dumps(report), encoding="utf-8")
    assert bench.check_reports({}) == []
    report["valid_count"] = 60
    bench.reports[0].write_text(json.dumps(report), encoding="utf-8")
    assert bench.check_reports({}) != []
