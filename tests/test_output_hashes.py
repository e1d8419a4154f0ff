"""tools/output_hashes.py on the benchmark's scenarios, shrunk: it prints
six hashes that repeat, and they are the pinned outputs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

NAMES = [
    "evolution.csv", "evolve_report.json", "sweep.csv", "sweep_report.json",
    "conditions.json", "fourier.json",
]

#: the outputs at --seed 1 --scale 0.01, measured with numpy 2.4.6
PINNED = {
    "evolution.csv": "55f411c36f53e218",
    "evolve_report.json": "be128a69fc541f8d",
    "sweep.csv": "6bf04a974be54b34",
    "sweep_report.json": "975c8de87b8e5249",
    "conditions.json": "ff13795746a0c075",
    "fourier.json": "2bb318a71dbca2e9",
}


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


def test_outputs_are_the_pinned_bytes():
    printed = dict(line.split() for line in hashes(1))
    moved = {name: digest for name, digest in printed.items() if digest != PINNED[name]}
    assert not moved, (
        f"outputs moved at --seed 1 --scale 0.01: {moved}; the pins were measured with "
        f"numpy 2.4.6 (this run: numpy {np.__version__}), so on another numpy a move "
        f"may be that version's roundoff rather than a change of the program"
    )
