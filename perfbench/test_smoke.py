"""Smoke test of the benchmark: one window per workload.

Checks that every metric named in BENCHMARK.json prints with its unit, that
the output checks ran, that the exact counts repeat between two traced runs
of one seed, and that the benchmark refuses to run without flowsketch source.
Run from the checkout root (about two minutes on two cores):

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
CHECKS = {"sweep-pmle-100k": ["decoder_rows", "empty_notes", "shared_counters"],
          "recover-5k-both": ["direct:exit_code", "direct:estimate_file",
                              "pmle-reduced:exit_code", "pmle-reduced:estimate_file"]}


def smoke(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def record(workload, trace):
    path = os.path.join(ROOT, ".perfbench", workload, f"result-trace{trace}-seed1.json")
    with open(path) as f:
        return json.load(f)


def check_printed(proc, names_units):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] == 1 and res["failed"] == 0
    assert set(res["metrics"]) == {name for name, _ in names_units}
    for name, unit in names_units:
        assert res["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_checks(workload):
    res = check_printed(smoke(workload, 0),
                        [(m["name"], m["unit"]) for m in BENCH["end_to_end"]])
    assert res["metrics"]["window_ok_frac"]["value"] == 1.0
    rec = record(workload, 0)
    assert rec["windows"][0]["checks"] == CHECKS[workload]
    assert rec["pinned_hashes_checked"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_repeating_counts(workload):
    counts = []
    for _ in range(2):
        check_printed(smoke(workload, 1),
                      [(m["name"], m["unit"]) for m in BENCH["per_layer"]])
        rec = record(workload, 1)
        assert rec["missing_spans"] == []
        counts.append(rec["counts"])
    assert counts[0] == counts[1]


def test_refuses_without_source(tmp_path):
    proc = smoke(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
