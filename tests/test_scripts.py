import dataclasses
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gsp4transfer import simgroups

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )


def test_group_census_runs(tmp_path):
    out = tmp_path / "census.json"
    proc = run_script("group_census.py", "--q", "3", "--json-out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload[0]["q"] == 3 and payload[0]["ok"] is True


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["code", "pair"])
def test_group_census_prints_counterexample(monkeypatch, capsys, kind):
    census = load_script("group_census.py")
    report = simgroups.verify_gso_presentation(3)
    if kind == "code":
        code = int(simgroups._encode(np.diag([1, 1, 1, 2]).reshape(1, 16), 3)[0])  # a reflection
        failed = dataclasses.replace(
            report,
            image_equals_gso=False,
            counterexample=simgroups._code_witness("image_equals_gso", "gso", code, 3),
        )
        expected = [
            "    failed: image_equals_gso",
            f"    counterexample (image_equals_gso): code {code} from gso, lambda 1, det 2",
            "      [1, 0, 0, 0]",
            "      [0, 1, 0, 0]",
            "      [0, 0, 1, 0]",
            "      [0, 0, 0, 2]",
        ]
    else:
        pair = [[[1, 0], [0, 1]], [[1, 0], [0, 2]]]
        failed = dataclasses.replace(
            report, kernel_is_scalar_pairs=False, counterexample={"check": "kernel_is_scalar_pairs", "pair": pair}
        )
        expected = [
            "    failed: kernel_is_scalar_pairs",
            "    counterexample (kernel_is_scalar_pairs): non-scalar kernel pair [[1, 0], [0, 1]], [[1, 0], [0, 2]]",
        ]
    monkeypatch.setattr(census, "verify_gso_presentation", lambda q: failed)
    monkeypatch.setattr(sys, "argv", ["group_census.py", "--q", "3"])
    assert census.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split()[:7] == ["3", "2", "1152", "1152", "2304", "576", "False"]
    assert lines[3:] == expected


def test_pole_experiment_runs(tmp_path):
    proc = run_script(
        "pole_order_experiment.py",
        "--bounds", "2000", "5000",
        "--seed", "11",
        "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["rows"]) == 6
    assert all(r["rounded"] == r["symbolic_order"] for r in summary["rows"])
    estimates = (tmp_path / "estimates.csv").read_bytes().split(b"\n")
    assert estimates[0] == b"case,X,symbolic_order,estimate,rounded,seconds"
    assert len(estimates) == 8 and estimates[-1] == b""
    assert estimates[2].split(b",")[:3] == [b"simple", b"5000", b"1"]
    assert (tmp_path / "sweep_double_5000.csv").read_text().startswith("s,re,im")


@pytest.mark.parametrize("bound", ["50", "100", "10000001", "20000000"])
def test_pole_experiment_refuses_bounds_outside_range(tmp_path, bound):
    out = tmp_path / "out"
    proc = run_script("pole_order_experiment.py", "--bounds", "1000", bound, "--out-dir", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == "pole_order_experiment.py: error: every bound must lie in [101, 10000000]"
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not out.exists()


def test_peak_rss_bounds_the_child():
    child = ["--", sys.executable, "-c", "print('child output')"]
    within = run_script("peak_rss.py", "--max-kib", str(10**9), *child)
    assert within.returncode == 0, within.stderr
    assert within.stdout == "child output\n" and re.fullmatch(r"peak RSS [1-9]\d* KiB\n", within.stderr)
    above = run_script("peak_rss.py", "--max-kib", "1", *child)
    assert above.returncode == 1
    assert re.fullmatch(r"peak RSS [1-9]\d* KiB\npeak RSS above the 1 KiB bound\n", above.stderr)
