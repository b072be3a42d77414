"""Seeded operation lists and the benchmark's declared metrics."""

import json
from pathlib import Path

import pytest

import run
from spans import per_layer_metrics
from workloads import WORKLOADS, build, frozen_cli_pool, once

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_operation_list(workload):
    assert build(workload, 7) == build(workload, 7)
    assert build(workload, 7) != build(workload, 8)
    assert len(build(workload, 7)) == len(build(workload, 8))


def test_frozen_commands_cover_every_seed():
    frozen = json.loads((ROOT / "perfbench" / "frozen.json").read_text())
    assert set(frozen["cli"]) == set(frozen_cli_pool())
    for workload in WORKLOADS:
        for seed in range(40):
            for op in build(workload, seed) + once(workload):
                if op.check == "frozen":
                    assert " ".join(op.args) in frozen["cli"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(run.PASS_SECONDS) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == per_layer_metrics()


def test_a_pass_with_other_outputs_fails():
    checked = {"digest": "a", "attempted": 5, "failed": 0}
    same = {"digest": "a", "attempted": 5, "failed": 0}
    other = {"digest": "b", "attempted": 5, "failed": 0}
    run.same_outputs([checked, same, other], checked)
    assert (checked["failed"], same["failed"], other["failed"]) == (0, 0, 5)
