"""Self-check of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest -q benchmarks/check_harness.py

Runs every workload at minimal size, untraced and traced, and checks that
each metric BENCHMARK.json names is emitted with its unit, that the outputs
pass the correctness gate, that layers a workload bypasses read zero, and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@lru_cache(maxsize=None)
def bench(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    *_, info, result = done.stdout.strip().splitlines()
    return json.loads(info), json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    info, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert set(info["unscaled"]) == {"steps_per_s", "select_ms", "setup_s"}
    assert info["context"]["src_py_lines"] > 0 and info["units"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest(workload):
    # the traced run repeats the untraced plan's first unit under the ledger
    assert bench(workload, 0)[0]["units"][0]["digest"] == bench(workload, 1)[0]["units"][0]["digest"]


def test_bypassed_layers_read_zero():
    sac = bench("train_shield_sac", 1)[1]["metrics"]
    for name in ("search_tree.search_safe_action.calls", "search_tree.nodes_per_correction",
                 "search_tree.build_tree.self_ms"):
        assert sac[name]["value"] == 0, name
    probe = bench("probe_deep", 1)[1]["metrics"]
    for name in ("drl.calls", "drl.nets.forward.calls", "drl.agents.update.calls",
                 "drl.nets.forward.self_ms"):
        assert probe[name]["value"] == 0, name


def test_workload_roles():
    probe = bench("probe_deep", 1)[1]["metrics"]
    assert probe["trace.share_tree_shield_dynamics"]["value"] > 0.75
    assert probe["search_tree.search_safe_action.calls"]["value"] > 0
    sac = bench("train_shield_sac", 1)[1]["metrics"]
    assert sac["trace.share_drl"]["value"] > 0.5
    ssa = bench("train_ssa_ddpg", 1)[1]["metrics"]
    assert ssa["drl.agents.update.calls"]["value"] > 0
    assert ssa["search_tree.search_safe_action.calls"]["value"] > 0


def test_refuses_to_run_without_sources():
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=tmp, timeout=180,
        )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
