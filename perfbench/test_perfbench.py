"""Self-test of the benchmark: every workload at the minimum length.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs once untraced and once traced with ``--seconds 1``.  The
test checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, and that the traced run's self times are non-negative and add up to no
more than the op time, both from the reported metrics and op by op from the
span file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 1


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int) -> dict:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result(workload, 0)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_account_for_op_time(workload):
    metrics = result(workload, 1)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected

    self_ms = [m["value"] for name, m in metrics.items() if name.endswith(".self_ms")]
    assert min(self_ms) >= 0
    assert sum(self_ms) <= metrics["op.ms"]["value"] * (1 + 1e-9)

    spans = [json.loads(line) for line in
             (ROOT / ".perfbench_out" / f"spans_{workload}_seed{SEED}.jsonl").open()]
    timed = [s for s in spans if s["op"] not in (None, "setup")]
    roots = {s["op"]: s for s in timed if s["name"] == "op"}
    assert roots, "no timed op was traced"
    covered = defaultdict(float)
    for s in timed:
        parent = s["parent"]
        if parent is None and s["name"] != "op":
            parent = roots[s["op"]]["id"]
        if parent is not None:
            covered[parent] += s["end"] - s["start"]
    total_self = defaultdict(float)
    for s in timed:
        own = s["end"] - s["start"] - covered[s["id"]]
        assert own >= -1e-9, s
        total_self[s["op"]] += own
    for op, root in roots.items():
        assert total_self[op] <= root["end"] - root["start"] + 1e-9


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
