"""Self-check of the benchmark, in its tiny mode (``--seconds 1``: one
operation per run, or one untraced and one traced).

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# Not used while the benchmark was tuned; gain claims are checked on it.
HELD_OUT_SEED = 7919
WORKLOADS = [w.name for w in run.WORKLOAD_LIST]
RUN_LAYER = [w.name for w in run.WORKLOAD_LIST if w.command == "run-layer"]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload, trace, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(HELD_OUT_SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, **(env or {})),
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_matches_the_runner():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_end_to_end(workload):
    # failed == 0 means every document matched the recorded bytes, so this
    # is also the held-out-seed check of the stats and ranking documents.
    result = _result(_bench(workload, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())
    assert metrics["pass_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_per_layer(workload):
    result = _result(_bench(workload, 1))
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == run.PER_LAYER
    self_sum = sum(metrics[name] for name in run._TIMED)
    assert 0 < self_sum <= metrics["trace.wall_s"]
    assert metrics["engine.calls"] >= 1
    assert metrics["trace.overhead_ratio"] > 0


@pytest.mark.parametrize("workload", RUN_LAYER)
def test_injected_fault_fails_every_operation(workload):
    result = _result(_bench(workload, 0, env={"TREEFAB_INJECT_FAULT": "1"}))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["pass_ratio"]["value"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
