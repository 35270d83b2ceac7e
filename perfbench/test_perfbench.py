"""The benchmark's own test: each workload at its smoke size, a few
seconds each, with the correctness check on.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout.splitlines()[-2]
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    proc = bench(workload, 0)
    result = result_of(proc)
    metrics = result["metrics"]
    # the known defect fails the planted entry's results and nothing else,
    # so failed is the same share of attempted on every seed
    inputs = json.loads(proc.stdout.splitlines()[-2])["provenance"]["inputs"]
    exposed = inputs.get("entries_exposed_to_known_defect", 0)
    assert exposed == (0 if workload == "offline" else 1)
    if exposed:
        assert result["failed"] * inputs["entries"] == result["attempted"] * exposed
    else:
        assert result["failed"] == 0
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


GIT = ("blame", "show", "rev-parse", "diff")


def traced(workload: str) -> dict[str, float]:
    metrics = result_of(bench(workload, 1))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    return {k: v["value"] for k, v in metrics.items()}


def test_deep_is_blame_bound():
    m = traced("deep")
    seconds = {sub: m[f"gitrepo.proc.{sub}.s"] for sub in GIT}
    assert max(seconds, key=seconds.get) == "blame", seconds
    assert m["engine.trace_candidates.repeat_frac"] > 0
    assert m["miner.word_prefilter.n"] == 0


def test_wide_is_per_call_bound():
    m = traced("wide")
    assert m["engine.trace_candidates.repeat_frac"] == 0
    others = sum(m[f"gitrepo.proc.{sub}.n"] for sub in GIT[1:])
    assert others >= 3 * m["gitrepo.proc.blame.n"] > 0, m


def test_offline_starts_no_git():
    m = traced("offline")
    assert sum(m[f"gitrepo.proc.{sub}.n"] for sub in GIT) == 0
    assert m["miner.word_prefilter.n"] > 0
    assert m["cli.evaluate.peak_rss_mb"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("wide", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
