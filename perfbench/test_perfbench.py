"""Keeps the benchmark from rotting: every workload at smoke size.

Run with ``python -m pytest perfbench``; it takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def _smoke(seed: int) -> tuple[list[dict], list[str]]:
    proc = _run(HERE.parent, "--size", "smoke", "--seconds", "0", "--seed", str(seed))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    fingerprints = [line.split()[1] for line in lines if line.strip().startswith("fingerprint")]
    return results, fingerprints


def test_benchmark_json_matches_the_harness():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


def test_smoke_runs_certify_and_repeat():
    first, first_fps = _smoke(7)
    second, second_fps = _smoke(7)
    assert len(first) == len(second) == 2 * len(WORKLOADS)  # untraced, then traced
    counts = [name for name, unit in PER_LAYER.items() if unit == "count"]
    for i, (a, b) in enumerate(zip(first, second)):
        assert a["correct"] and a["failed"] == 0 and a["attempted"] >= 1
        expected = PER_LAYER if i % 2 else END_TO_END
        assert {k: v["unit"] for k, v in a["metrics"].items()} == expected
        if i % 2:
            assert [a["metrics"][k]["value"] for k in counts] == [b["metrics"][k]["value"] for k in counts]
    assert first_fps == second_fps


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = _run(tmp_path, "--workload", "exact-bnb", "--seconds", "1")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
