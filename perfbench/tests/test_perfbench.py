"""Tests of the benchmark itself: generators, output checks, failure
counting, import-time parsing and span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, check_outputs, make_case  # noqa: E402

from adiorbit.cli import main as cli_main  # noqa: E402

TINY = 0.01  # a hundredth of the time range and steps, same step size


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each workload at tiny size, run in-process: {name: (case, out_dir)}."""
    runs = {}
    for name in WORKLOADS:
        base = tmp_path_factory.mktemp(name)
        case = make_case(name, seed=7, scale=TINY)
        config = base / "scenario.cfg"
        config.write_text(case.config_text())
        out = base / "out"
        assert cli_main(case.cli_args(config, out)) == 0
        runs[name] = (case, out)
    return runs


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_passes_checks(tiny_runs, name):
    case, out = tiny_runs[name]
    failures, err = check_outputs(case, out)
    assert failures == []
    assert 0.0 <= err < 1e-6


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_seeded(name):
    assert make_case(name, 3).config == make_case(name, 3).config
    assert make_case(name, 3).config != make_case(name, 4).config


def test_generated_inputs_stay_in_range():
    for seed in range(20):
        theta = make_case("evolve_spin_a", seed).params["theta"]
        assert math.pi / 6 <= theta <= math.pi / 3
        conj = make_case("check_conj_d5", seed).params
        assert np.diff(conj["energies"]).min() >= 1.0
        v = conj["generator"]
        assert np.allclose(v, v.conj().T, atol=0.0)


def _copy_outputs(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    return dst


def _perturb_json(path: Path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def test_perturbed_evolve_report_fails(tiny_runs, tmp_path):
    case, out = tiny_runs["evolve_spin_a"]
    bad = _copy_outputs(out, tmp_path / "bad")

    def edit(p):
        p["min_p_exact"] += 1e-12

    _perturb_json(bad / "evolve_report.json", edit)
    failures, _ = check_outputs(case, bad)
    assert any("min_p_exact" in f for f in failures)


def test_perturbed_conditions_fail(tiny_runs, tmp_path):
    case, out = tiny_runs["check_conj_d5"]
    bad = _copy_outputs(out, tmp_path / "bad")

    def edit(p):
        p["min_p_exact"] -= 1e-4

    _perturb_json(bad / "conditions.json", edit)
    failures, err = check_outputs(case, bad)
    assert failures and err > 1e-5


def test_perturbed_sweep_row_fails(tiny_runs, tmp_path):
    case, out = tiny_runs["sweep_spin_b"]
    bad = _copy_outputs(out, tmp_path / "bad")
    lines = (bad / "sweep.csv").read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = f"{float(cells[1]) - 1e-3:.16e}"
    lines[2] = ",".join(cells)
    (bad / "sweep.csv").write_text("\n".join(lines) + "\n")
    failures, _ = check_outputs(case, bad)
    assert any("closed form" in f for f in failures)
    assert any("sweep_report.json" in f for f in failures)


def test_missing_outputs_fail(tiny_runs, tmp_path):
    for name in WORKLOADS:
        case, _ = tiny_runs[name]
        failures, err = check_outputs(case, tmp_path)
        assert failures and err == math.inf


def test_nonzero_exit_counts_as_failure(tmp_path):
    case = make_case("check_conj_d5", 1, scale=TINY)
    config = tmp_path / "scenario.cfg"
    config.write_text(case.config_text() + "model.bogus = 1\n")
    runner = run.Runner(tmp_path, time.monotonic())
    metrics = run.end_to_end(runner, case, config, seconds=0)
    assert len(runner.records) == 2 * run.MIN_ROUNDS
    assert all(inv.exit_code != 0 and not inv.ok for inv in runner.records)
    assert metrics["ok_frac"][0] == 0.0
    assert metrics["p_exact_digits"][0] == 0.0


def test_child_past_the_deadline_is_killed_and_counted(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() - run.DEADLINE_S + 1.5)
    with pytest.raises(run.Deadline):
        runner.python("slow", "-c", "import time; time.sleep(60)")
    assert [(inv.exit_code, inv.ok) for inv in runner.records] == [(-9, False)]
    assert runner.records[0].wall_s < 10


def test_failed_traced_round_reports_no_layer_metrics(tmp_path):
    case = make_case("check_conj_d5", 1, scale=TINY)
    config = tmp_path / "scenario.cfg"
    config.write_text(case.config_text() + "model.bogus = 1\n")
    runner = run.Runner(tmp_path, time.monotonic())
    metrics, traces = run.per_layer(runner, case, config, 0, "test")
    assert traces == [] and set(metrics) == {"cli.import_s", "cli.import_scipy_s"}
    assert [inv.label for inv in runner.records if not inv.ok] == ["cli", "traced", "traced"]


def _benchmark_names(kind):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _tiny_config(tmp_path, name):
    case = make_case(name, 5, scale=TINY)
    config = tmp_path / "scenario.cfg"
    config.write_text(case.config_text())
    return case, config


def test_end_to_end_reports_every_declared_metric(tmp_path):
    case, config = _tiny_config(tmp_path, "check_conj_d5")
    runner = run.Runner(tmp_path, time.monotonic())
    metrics = run.end_to_end(runner, case, config, seconds=0)
    assert all(inv.ok for inv in runner.records)
    assert {k: unit for k, (_, unit) in metrics.items()} == _benchmark_names("end_to_end")
    assert metrics["ok_frac"][0] == 1.0
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_run_reports_every_declared_metric(tmp_path):
    case, config = _tiny_config(tmp_path, "sweep_spin_b")
    runner = run.Runner(tmp_path, time.monotonic())
    metrics, traces = run.per_layer(runner, case, config, 0, "test")
    assert all(inv.ok for inv in runner.records)
    assert {k: unit for k, (_, unit) in metrics.items()} == _benchmark_names("per_layer")
    assert all(math.isfinite(value) for value, _ in metrics.values())
    assert metrics["model.samples"][0] > 0 and metrics["cli.import_scipy_s"][0] > 0
    names = {s["name"] for s in traces[0]["spans"]}
    assert {"cli.command", "pipeline.run", "model.build", "linalg.scan_states"} <= names
    assert {s["run"] for s in traces[0]["spans"]} == {"test-r0-t2"}


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |       scipy.integrate._x",
        "import time:        10 |         60 |     scipy.integrate",
        "import time:        40 |        400 |   adiorbit.grid",
        "import time:        30 |        430 | adiorbit",
        "import time:        70 |        500 | adiorbit.cli",
    ])
    total, scipy = run.parse_importtime(stderr)
    assert total == pytest.approx(500e-6)
    assert scipy == pytest.approx(360e-6)


def test_self_time_uses_union_of_children():
    spans = [
        Span(1, 0, "cli.command", 0.0, 10.0, "r"),
        Span(2, 1, "pipeline.run", 1.0, 5.0, "r"),
        Span(3, 1, "pipeline.run", 3.0, 7.0, "r"),  # overlaps span 2
        Span(4, 2, "spectrum.solve", 1.0, 2.0, "r"),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_worker_thread_spans_attach_to_open_command():
    tracer = Tracer("run-1")
    with tracer.span("cli.command"):
        with tracer.span("inner"):
            pass
        worker_spans = []

        def work():
            with tracer.span("pipeline.run"):
                pass
            worker_spans.append(True)

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and worker_spans
    by_name = {s.name: s for s in tracer.spans}
    command = by_name["cli.command"]
    assert by_name["inner"].parent == command.id
    assert by_name["pipeline.run"].parent == command.id
    assert {s.run for s in tracer.spans} == {"run-1"}
