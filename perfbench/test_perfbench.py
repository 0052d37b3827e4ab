"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from timing import read_spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_METRICS = {
    "groups": {"verify_q3_s"},
    "poles": {"pole_err_max", "fixture_s", "partial_L_s"},
    "transfer": {"op_p90_ms", "op_samples", "op_samples_beyond_p90"},
}


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def lines(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.strip().splitlines()
    return json.loads(out[-2])["report"], json.loads(out[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_named_with_its_unit(workload):
    report, result = lines(smoke(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(report["workload_metrics"]) == {"failed_share", "raw_wall_s"} | WORKLOAD_METRICS[workload]
    assert all("unit" in v for v in report["workload_metrics"].values())
    assert set(report["env"]) >= {"nproc", "python", "numpy", "GSP4TRANSFER_WORKERS",
                                  "git_commit", "seed"}

    report, result = lines(smoke(workload, 1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_known_defects_are_counted_but_do_not_make_the_run_incorrect():
    report, result = lines(smoke("transfer", 0))
    assert result["correct"]
    assert result["failed"] == report["known_defect_failures"]
    assert all(f["known_defect"] for f in report["failures"])


def test_oracle_flags_a_wrong_expected_value(tmp_path):
    rng = np.random.default_rng(0)
    kernel, image, go = workloads.GROUP_ORDERS[3]
    right = workloads.groups_ops(rng, True, str(tmp_path))[0]
    wrong = workloads.groups_ops(rng, True, str(tmp_path), {3: (kernel, image + 1, go)})[0]
    outcome = right.run()
    assert right.check(outcome) is None
    assert "expected" in wrong.check(outcome)

    ops = workloads.transfer_ops(rng, True, str(tmp_path))
    valid = next(op for op in ops if op.kind == "transfer")
    outcome = valid.run()
    assert valid.check(outcome) is None
    fmt = "json" if outcome.out.lstrip().startswith("{") else "text"
    assert workloads.check_transfer_ok(valid.places + 1, [], fmt, outcome) is not None


def test_traced_run_emits_a_parent_linked_span_tree():
    report, _ = lines(smoke("poles", 1))
    spans = read_spans(ROOT / report["trace_file"])
    by_id = {row[0]: row for row in spans}
    assert len(by_id) == len(spans)
    roots = [row for row in spans if row[1] == -1]
    assert roots and all(row[3].startswith("op.") for row in roots)
    for sid, parent, op, name, start, end, _ in spans:
        assert start <= end
        if parent != -1:
            up = by_id[parent]
            assert up[2] == op and up[4] <= start and end <= up[5]
    depth = {}
    for row in spans:
        depth[row[0]] = 0 if row[1] == -1 else depth[row[1]] + 1
    assert max(depth.values()) >= 3  # op -> cli.main -> library call -> nested call
    names = {row[3] for row in spans}
    assert {"cli.main", "lseries.estimate_with_sweep", "isobaric.SymbolRegistry.create"} <= names


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("groups", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
