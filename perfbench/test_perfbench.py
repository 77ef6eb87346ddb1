"""The benchmark's own tests, at a small size.

    PYTHONPATH=src python3 -m pytest perfbench -q

Every workload runs on the default and the held-out seed.  The tests
check that each metric named in BENCHMARK.json is printed with its unit,
that count and virtual metrics repeat exactly between two runs of one
seed, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

#: small trials keep the suite quick; the size is the same in every run.
CALLS = 60

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)

#: per-layer metrics that come from a host clock and may vary.
TIMED_SUFFIXES = ("self_ms_per_call", "self_share", "overhead_ratio")


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--trace", str(trace),
               "--calls", str(CALLS)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


def check_named(result: dict, section: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert printed == expected


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert DEFAULT_SEED != HELD_OUT_SEED


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_repeats(workload, seed):
    first = result_of(bench(workload, seed, 0))
    second = result_of(bench(workload, seed, 0))
    check_named(first, "end_to_end")
    assert first["failed"] == 0
    for name, metric in first["metrics"].items():
        assert metric["value"] > 0, name
        if name.startswith("virt_"):
            assert metric["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat(workload, seed):
    first = result_of(bench(workload, seed, 1))
    second = result_of(bench(workload, seed, 1))
    check_named(first, "per_layer")
    metrics = first["metrics"]
    for name, metric in metrics.items():
        if not name.endswith(TIMED_SUFFIXES):
            assert metric["value"] == second["metrics"][name]["value"], name
    events = metrics["obs.events_per_call"]["value"]
    assert (events > 0) == (workload == "circus-observed")
    shares = sum(metrics[name]["value"] for name in metrics
                 if name.endswith(".self_share"))
    assert shares == pytest.approx(1.0)
    assert metrics["trace.overhead_ratio"]["value"] > 1.0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("circus", DEFAULT_SEED, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
