import json
import subprocess
import sys
from pathlib import Path

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
