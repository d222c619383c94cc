"""Smoke runs of the experiment scripts with small arguments."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cantor_gaps_script():
    out = json.loads(run_script("cantor_gaps.py", "--n", "3", "--n2", "4"))
    assert (out["n"], out["n2"]) == (3, 4)
    assert [r["separation"] for r in out["rows"]] == [2.0, 3.0, 4.0, 5.0]
    for r in out["rows"]:
        assert len(r["top_gaps_n"]) == len(r["top_gaps_n2"]) == 4
        assert r["top_gap_change"] >= 0.0


def test_limit_set_density_script():
    rows = list(csv.DictReader(io.StringIO(run_script("limit_set_density.py", "--max-n", "3"))))
    assert [int(r["n"]) for r in rows] == [1, 2, 3]
    gaps = [float(r["max_gap"]) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]


def test_mapping_class_residuals_script():
    out = json.loads(run_script("mapping_class_residuals.py", "--n", "3", "--max-depth", "1"))
    assert (out["group"], out["n"]) == ("cusped-torus", 3)
    by_name = {r["automorphism"]: r["residual_by_depth"] for r in out["rows"]}
    assert set(by_name) == {"identity", "inner-A", "inner-AB", "twist", "twist-inverse"}
    for residuals in by_name.values():
        assert set(residuals) == {"0", "1"}
    assert by_name["identity"]["0"] == pytest.approx(0.0, abs=1e-10)
    assert by_name["inner-A"]["1"] == pytest.approx(0.0, abs=1e-6)
