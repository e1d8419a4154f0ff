"""Smoke test of tools/stage_profile.py on a tiny scenario."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CONFIG = """\
model.kind = conjugated
model.energies = 0, 1.3, 2.9
model.generator = 0.02, 0.01+0.03j, 0; 0.01-0.03j, -0.01, 0.02; 0, 0.02, 0.03
grid.tau_end = 2.0
grid.n_steps = 200
"""

STAGES = {
    "check": ["spectrum.solve", "spectrum.gamma", "frame.build", "propagate.coefficients",
              "perturb.conditions", "cli.write"],
    "evolve": ["spectrum.solve", "spectrum.gamma", "frame.build", "propagate.coefficients",
               "propagate.schrodinger", "propagate.direct", "perturb.probabilities",
               "cli.write"],
}


@pytest.mark.parametrize("command", ["check", "evolve"])
def test_prints_every_stage(tmp_path, command):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(CONFIG)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_profile.py"), command,
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.rsplit(None, 4) for line in proc.stderr.splitlines()]
    assert rows[0] == ["stage", "vmhwm_mb", "rss_mb", "minflt", "seconds"]
    names = [row[0] for row in rows[1:]]
    assert names[0] == "after import" and names[-1] == "command"
    assert set(STAGES[command]) <= set(names)
    for _, hwm, rss, faults, seconds in rows[1:]:
        assert float(hwm) > 0 and int(faults) >= 0 and float(seconds) >= 0
    assert any((tmp_path / "out").iterdir())
