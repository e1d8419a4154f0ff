"""The benchmark's traced run times each layer by rebinding adiorbit's
names and model fields from outside (``perfbench/spans.py``). This runs
it on a tiny case of each workload, so a change to ``src/`` that removes
or renames one of those names fails here and not only when the
benchmark is run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_span_names(tmp_path, workload) -> set:
    case = _workloads().make_case(workload, 1, scale=0.01)
    config = tmp_path / "scenario.cfg"
    config.write_text(case.config_text())
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), "--spans", str(spans),
         "--run", "contract", "--", *case.cli_args(config, tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {span["name"] for span in json.loads(spans.read_text())["spans"]}


def test_traced_cli_records_layer_spans(tmp_path):
    names = _traced_span_names(tmp_path, "sweep_spin_b")
    assert {"model.sample", "spectrum.solve", "linalg.scan_states"} <= names


@pytest.mark.parametrize(
    "workload, expected",
    [
        ("evolve_spin_a", {"model.sample", "spectrum.solve", "spectrum.gamma", "frame.build",
                           "linalg.unitary_steps", "propagate.schrodinger",
                           "perturb.probabilities", "perturb.conditions"}),
        ("check_conj_d5", {"model.build", "model.sample", "spectrum.solve",
                           "spectrum.gamma", "frame.build", "perturb.conditions"}),
    ],
)
def test_traced_cli_records_layer_spans_on_every_workload(tmp_path, workload, expected):
    assert expected <= _traced_span_names(tmp_path, workload)
