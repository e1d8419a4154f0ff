"""Smoke test of tools/output_hashes.py on the benchmark's scenarios, shrunk."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NAMES = [
    "evolution.csv", "evolve_report.json", "sweep.csv", "sweep_report.json",
    "conditions.json", "fourier.json",
]


def hashes(seed: int) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_hashes.py"),
         "--seed", str(seed), "--scale", "0.01"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_prints_six_hashes_that_repeat():
    first = hashes(1)
    assert [line.split()[0] for line in first] == NAMES
    assert all(re.fullmatch(r"[0-9a-f]{16}", line.split()[1]) for line in first)
    assert hashes(1) == first
