import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiorbit import _csv, cli, pipeline
from adiorbit._linalg import STEP_CHUNK
from adiorbit.cli import load_scenario, main, run_evolve
from adiorbit.errors import ConfigError, NonFiniteReport, NonFiniteStep
from adiorbit.pipeline import NORM_RESIDUAL_BOUND
from adiorbit.propagate import StateTrajectory, evolve_schrodinger, survival_probability_direct

from conftest import SZ, count_calls, write_tabulated

SPIN_A_CONFIG = """\
# rotating-field spin test scenario
model.kind = spin_half
model.variant = a
model.omega0 = 1.0
model.omega = 0.1
model.theta = 0.7853981633974483
grid.tau_end = 20.0
grid.n_steps = 20000
evolve.initial_level = 0
"""

# a d = 5 conjugated model: its evolution.csv has 12 columns
CONJ_D5_CONFIG = """\
model.kind = conjugated
model.energies = 0, 1.3, 2.9, 4.1, 5.6
model.generator = 0.02, 0.01+0.03j, 0, 0.02j, 0.01; 0.01-0.03j, -0.01, 0.02, 0, 0.03-0.01j; \
0, 0.02, 0.03, 0.01+0.01j, 0; -0.02j, 0, 0.01-0.01j, 0, 0.02; 0.01, 0.03+0.01j, 0, 0.02, -0.02
grid.tau_end = 20.0
grid.n_steps = 2000
"""


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestEvolve:
    def test_spin_a_matches_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, SPIN_A_CONFIG)
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        header, data = read_csv(out / "evolution.csv")
        assert header[:7] == [
            "tau", "P_exact", "P_direct", "P_first", "P_second", "P_ratio",
            "norm_residual",
        ]
        assert header[7:] == ["|c_0|^2", "|c_1|^2"]
        taus, p_exact = data[:, 0], data[:, 1]
        wt = np.sqrt(1.0 + 0.01 + 0.2 * np.cos(np.pi / 4))
        closed = 1 - (0.01 * 0.5 / wt**2) * np.sin(wt * taus / 2) ** 2
        assert np.abs(p_exact - closed).max() < 1e-6
        assert np.abs(data[:, 1] - data[:, 2]).max() < 1e-6  # exact vs direct
        report = json.loads((out / "evolve_report.json").read_text())
        assert report["resolved_config"]["model.kind"] == "spin_half"
        assert report["min_p_exact"] == pytest.approx(p_exact.min())

    def test_variant_b_analytic_gauge_matches_continuity(self, tmp_path):
        text = SPIN_A_CONFIG.replace("model.variant = a", "model.variant = b")
        p_exact = {}
        for gauge in ("continuity", "analytic"):
            cfg = write_config(tmp_path, text + f"spectrum.gauge = {gauge}\n", name=f"{gauge}.cfg")
            assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / gauge)]) == 0
            p_exact[gauge] = read_csv(tmp_path / gauge / "evolution.csv")[1][:, 1]
        taus = np.linspace(0.0, 20.0, 20001)
        closed = 1.0 - 0.5 * np.sin(0.05 * taus) ** 2
        # each gauge carries the finite-difference gamma's O(dtau^2) error
        # (1.1e-7 and 6.4e-8 here), so they agree to 1.8e-7, not to roundoff
        for p in p_exact.values():
            assert np.abs(p - closed).max() < 2e-7
        assert np.abs(p_exact["analytic"] - p_exact["continuity"]).max() < 3e-7

    def test_csv_bytes_match_per_field_format(self, tmp_path):
        scenarios = {"spin_a": SPIN_A_CONFIG.replace("20000", "5000"), "d5": CONJ_D5_CONFIG}
        for name, text in scenarios.items():
            scenario = load_scenario(write_config(tmp_path, text, name=f"{name}.cfg"))
            d = scenario.model.dimension
            rows_per_chunk = _csv._CHUNK // (7 + d)
            n_rows = scenario.grid.n_steps + 1
            # at least two writer chunks, the last one partial
            assert n_rows > rows_per_chunk and n_rows % rows_per_chunk
            out = tmp_path / name
            result = run_evolve(scenario, out)
            columns = [
                result.grid.samples,
                result.p_exact,
                result.p_direct,
                result.p_first,
                result.p_second,
                result.p_ratio,
                result.norm_residual,
                *(np.abs(result.coefficients.coefficients) ** 2).T,
            ]
            lines = ["tau,P_exact,P_direct,P_first,P_second,P_ratio,norm_residual"]
            lines[0] += "".join(f",|c_{n}|^2" for n in range(d))
            lines += [",".join(f"{float(x):.16e}" for x in row) for row in zip(*columns)]
            expected = "\n".join(lines) + "\n"
            assert (out / "evolution.csv").read_bytes() == expected.encode()

    def test_csv_writer_holds_no_whole_table(self, tmp_path):
        # a 2e5-row, d = 2 table as the baseline scenario writes it
        rng = np.random.default_rng(4)
        n_rows = 200_001
        columns = rng.random((7, n_rows))
        result = SimpleNamespace(
            model=SimpleNamespace(dimension=2),
            grid=SimpleNamespace(samples=columns[0], times=lambda lo, hi: columns[0][lo:hi]),
            initial_level=0,
            p_exact=columns[1],
            p_direct=columns[2],
            p_first=columns[3],
            p_second=columns[4],
            p_ratio=columns[5],
            norm_residual=columns[6],
            coefficients=SimpleNamespace(coefficients=rng.random((n_rows, 2)) + 0.5j),
        )
        table_bytes = n_rows * 9 * 8
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "evolution.csv", *cli._evolution_table(result))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * table_bytes

    def test_peak_is_the_live_set_at_the_write(self, tmp_path, monkeypatch):
        """No stage of evolve holds a whole-grid temporary over what the run
        keeps: the traced peak stays within the writer's buffers of the
        memory held when the CSV write starts."""
        text = SPIN_A_CONFIG.replace("tau_end = 20.0", "tau_end = 100.0")
        scenario = load_scenario(write_config(tmp_path, text.replace("20000", "100000")))
        at_write = []
        original = cli._write_csv

        def recording(*args):
            at_write.append(tracemalloc.get_traced_memory()[0])
            return original(*args)

        monkeypatch.setattr(cli, "_write_csv", recording)
        tracemalloc.start()
        try:
            run_evolve(scenario, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1.2 MB over the live set, the writer's buffers (numpy 2.4). At
        # 2e4 steps one chunk of the propagators' stacks is larger than a
        # whole-grid temporary, so the grid is 1e5 steps: a direct overlap
        # formed over the whole grid at once peaks 5.3 MB over the live set
        # here, and one (n + 1, 2) complex temporary is 3.2 MB.
        assert len(at_write) == 1
        assert peak <= at_write[0] + 2 * 2**20

    def test_constant_model_all_columns_one(self, tmp_path):
        table = write_tabulated(tmp_path / "const.txt", [0.0, 30.0], [SZ, SZ])
        cfg = write_config(
            tmp_path,
            f"model.kind = tabulated\nmodel.path = {table}\n"
            "grid.tau_end = 20.0\ngrid.n_steps = 2000\n",
        )
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        _, data = read_csv(out / "evolution.csv")
        for col in range(1, 6):  # all probability columns
            assert np.abs(data[:, col] - 1.0).max() < 1e-12
        assert data[:, 6].max() < 1e-12  # norm residual

        # decoupled dynamics: every criterion value is exactly zero
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "conditions.json").read_text())
        assert payload["passed"] is True
        assert all(c["value"] == 0.0 for c in payload["criteria"])

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, SPIN_A_CONFIG.replace("20000", "2000"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["evolve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["evolve", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "evolution.csv").read_bytes() == (out2 / "evolution.csv").read_bytes()

    def test_degenerate_gap_exits_3(self, tmp_path, capsys):
        # tabulated linear crossing: gap closes at tau = 1
        h0, h1 = np.diag([-1.0, 1.0]), np.diag([1.0, -1.0])
        table = write_tabulated(tmp_path / "cross.txt", [0.0, 2.0], [h0, h1])
        cfg = write_config(
            tmp_path,
            f"model.kind = tabulated\nmodel.path = {table}\n"
            "grid.tau_end = 2.0\ngrid.n_steps = 200\n",
        )
        code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "DegenerateGap" in err
        assert "spectrum" in err


class TestSchrodingerRoute:
    """The Schrodinger route runs only when p_direct is read, and its
    states are not kept."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        original = pipeline.evolve_schrodinger

        def counting(*args, **kwargs):
            counted.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "evolve_schrodinger", counting)
        return counted

    @pytest.mark.parametrize("command, expected", [("check", 0), ("sweep", 0), ("evolve", 1)])
    def test_runs_only_for_evolve(self, tmp_path, calls, command, expected):
        cfg = write_config(
            tmp_path, SPIN_A_CONFIG + "sweep.parameter = model.omega\nsweep.values = 0.1, 0.2\n"
        )
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == expected

    def test_read_twice_runs_once(self, tmp_path, calls):
        scenario = load_scenario(write_config(tmp_path, SPIN_A_CONFIG))
        result = pipeline.run_pipeline(scenario.model, scenario.grid)
        assert len(calls) == 0
        first = result.p_direct
        assert result.p_direct is first
        assert len(calls) == 1

    def test_p_direct_is_the_overlap_of_a_route_it_does_not_keep(self, tmp_path):
        scenario = load_scenario(write_config(tmp_path, SPIN_A_CONFIG))
        result = pipeline.run_pipeline(scenario.model, scenario.grid)
        initial_state = result.frame.dressed_column(0, slice(0, 1))[0]
        states = evolve_schrodinger(scenario.model, initial_state, scenario.grid)
        expected = survival_probability_direct(states, result.frame, 0)
        assert result.p_direct.tobytes() == expected.tobytes()
        assert not any(isinstance(v, StateTrajectory) for v in vars(result).values())

    def test_reading_p_direct_keeps_no_trajectory(self, tmp_path):
        text = SPIN_A_CONFIG.replace("tau_end = 20.0", "tau_end = 100.0")
        scenario = load_scenario(write_config(tmp_path, text.replace("20000", "100000")))
        n, d = scenario.grid.n_steps, scenario.model.dimension
        result = pipeline.run_pipeline(scenario.model, scenario.grid)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p_direct = result.p_direct
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the (n + 1,) curve is a quarter of the (n + 1, d) complex states
        assert p_direct.shape == (n + 1,)
        assert grown < 0.5 * (n + 1) * d * 16


class TestPerturbativeProbabilities:
    """P_first, P_second and P_ratio are computed only when read: by evolve's CSV."""

    NAMES = (
        "first_order_probability",
        "second_order_probability",
        "ratio_probability_first_iteration",
    )

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        for name in self.NAMES:
            original = getattr(pipeline, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counted.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counting)
        return counted

    @pytest.mark.parametrize("command, expected", [("check", 0), ("sweep", 0), ("evolve", 1)])
    def test_run_only_for_evolve(self, tmp_path, calls, command, expected):
        cfg = write_config(
            tmp_path, SPIN_A_CONFIG + "sweep.parameter = model.omega\nsweep.values = 0.1, 0.2\n"
        )
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert sorted(calls) == sorted(self.NAMES * expected)

    def test_read_twice_runs_once(self, tmp_path, calls):
        scenario = load_scenario(write_config(tmp_path, SPIN_A_CONFIG))
        result = pipeline.run_pipeline(scenario.model, scenario.grid)
        assert calls == []
        for name, attr in zip(self.NAMES, ("p_first", "p_second", "p_ratio")):
            first = getattr(result, attr)
            assert getattr(result, attr) is first
            assert calls[-1] == name
        assert sorted(calls) == sorted(self.NAMES)

    def test_evolve_reads_the_schrodinger_route_before_them(self, tmp_path, calls, monkeypatch):
        """The route's transient states are then held while the fewest
        whole-grid arrays are live, which keeps evolve's peak RSS down."""
        original = pipeline.evolve_schrodinger

        def marking(*args, **kwargs):
            calls.append("evolve_schrodinger")
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "evolve_schrodinger", marking)
        cfg = write_config(tmp_path, SPIN_A_CONFIG)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert calls[0] == "evolve_schrodinger"
        assert sorted(calls[1:]) == sorted(self.NAMES)


class TestCheck:
    def test_adiabatic_regime_all_pass(self, tmp_path):
        cfg = write_config(tmp_path, SPIN_A_CONFIG)
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "conditions.json").read_text())
        assert payload["passed"] is True
        names = {c["criterion"] for c in payload["criteria"]}
        assert names == {"FirstOrder", "SecondOrder", "RatioFirstIter", "CompactFunctional"}
        for c in payload["criteria"]:
            assert set(c) >= {"criterion", "value", "threshold", "pass", "tau_end"}
            assert c["pass"] is True
        first = next(c for c in payload["criteria"] if c["criterion"] == "FirstOrder")
        assert first["per_level"].keys() == {"1"}
        assert "resolved_config" in payload

    def test_threshold_override(self, tmp_path):
        cfg = write_config(tmp_path, SPIN_A_CONFIG)
        out = tmp_path / "out"
        assert main(
            ["check", "--config", str(cfg), "--out", str(out), "--threshold", "1e-9"]
        ) == 0
        payload = json.loads((out / "conditions.json").read_text())
        assert payload["passed"] is False

    def test_peak_is_the_live_set_after_the_conditions(self, tmp_path, monkeypatch):
        """No stage of check holds a whole-grid temporary beyond V and M:
        the traced peak stays within two (n + 1, d, d) stacks, the moment
        gamma is formed beside V, and what the run holds once the
        conditions have been evaluated is M, Theta, c and the initial
        level's column of V."""
        text = CONJ_D5_CONFIG.replace("tau_end = 20.0", "tau_end = 40.0")
        scenario = load_scenario(write_config(tmp_path, text.replace("2000", "40000")))
        held = []
        original = cli.evaluate_conditions

        def recording(*args, **kwargs):
            report = original(*args, **kwargs)
            held.append(tracemalloc.get_traced_memory()[0])
            return report

        monkeypatch.setattr(cli, "evaluate_conditions", recording)
        tracemalloc.start()
        try:
            cli.run_check(scenario, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The d = 5 grid of the benchmark's check: one (n + 1, 5, 5)
        # complex stack is 15.3 MiB. Measured (numpy 2.4): peak 33.7 MiB,
        # at gamma (35.5 allowed; 38.8 when V was kept through the
        # coefficient route), and 22.9 MiB held (23.9 allowed; 35.1 with V).
        n1, d = 40001, 5
        stack = n1 * d * d * 16
        theta, c, column = n1 * d * 8, n1 * d * 16, n1 * d * 16
        assert len(held) == 1
        assert peak <= 2 * stack + 5 * 2**20
        assert held[0] <= stack + theta + c + column + 2**20

    def test_threshold_override_builds_the_model_once(self, tmp_path, monkeypatch):
        builds = []
        original = cli.build_spin_half

        def counting(params):
            builds.append(params)
            return original(params)

        monkeypatch.setattr(cli, "build_spin_half", counting)
        cfg = write_config(tmp_path, SPIN_A_CONFIG)
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out), "--threshold", "0.5"]) == 0
        assert len(builds) == 1
        payload = json.loads((out / "conditions.json").read_text())
        assert payload["resolved_config"]["conditions.threshold"] == "0.5"
        assert {c["threshold"] for c in payload["criteria"]} == {0.5}

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_threshold_override_out_of_range_exits_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, SPIN_A_CONFIG)
        argv = ["check", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threshold", value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "conditions.threshold" in err

    def test_variant_b_verdict_differs_from_a(self, tmp_path):
        # same parameters, conjugated-dual drive: the first-order value is
        # on the tan(theta)^2 scale instead of passing
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_config(tmp_path, SPIN_A_CONFIG, name="a.cfg")
        cfg_b = write_config(
            tmp_path, SPIN_A_CONFIG.replace("model.variant = a", "model.variant = b"),
            name="b.cfg",
        )
        assert main(["check", "--config", str(cfg_a), "--out", str(out_a)]) == 0
        assert main(["check", "--config", str(cfg_b), "--out", str(out_b)]) == 0
        value_a = next(
            c["value"]
            for c in json.loads((out_a / "conditions.json").read_text())["criteria"]
            if c["criterion"] == "FirstOrder"
        )
        payload_b = json.loads((out_b / "conditions.json").read_text())
        value_b = next(
            c["value"] for c in payload_b["criteria"] if c["criterion"] == "FirstOrder"
        )
        expected_b = np.tan(np.pi / 4) ** 2 * np.sin(0.1 * np.cos(np.pi / 4) * 10) ** 2
        assert value_b == pytest.approx(expected_b, rel=1e-3)
        assert value_b > 10 * value_a
        assert payload_b["passed"] is False


class TestFourier:
    def test_spin_a_ratio(self, tmp_path):
        period = 2 * np.pi / 0.1
        cfg = write_config(
            tmp_path,
            "model.kind = spin_half\nmodel.variant = a\n"
            "model.omega0 = 1.0\nmodel.omega = 0.1\n"
            "model.theta = 0.7853981633974483\n"
            f"grid.tau_end = {period!r}\ngrid.n_steps = 20000\n"
            "fourier.n_harmonics = 4\n",
        )
        out = tmp_path / "out"
        assert main(["fourier", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "fourier.json").read_text())
        pair = payload["pairs"][0]
        expected = (0.1 * np.sin(np.pi / 4) / 2) / (1.0 + 0.1 * np.cos(np.pi / 4))
        assert pair["max_ratio"] == pytest.approx(expected, abs=1e-6)
        assert pair["is_linear"] is True
        # 0.033 is above the default 1e-2 threshold
        assert pair["pass"] is False
        assert payload["passed"] is False

        # a looser threshold flips the verdict
        assert main(
            ["fourier", "--config", str(cfg), "--out", str(out), "--threshold", "0.05"]
        ) == 0
        payload = json.loads((out / "fourier.json").read_text())
        assert payload["pairs"][0]["pass"] is True

    def test_reads_only_the_frame(self, tmp_path, monkeypatch):
        # fourier reads the frame alone, so nothing is propagated
        def no_route(*args):
            raise AssertionError("fourier ran the coefficient route")

        monkeypatch.setattr(pipeline, "evolve_coefficients", no_route)
        cfg = write_config(
            tmp_path,
            "model.kind = conjugated\nmodel.energies = 0, 1\n"
            "model.generator = 0, 0.1; 0.1, 0\n"
            "grid.tau_end = 20.0\ngrid.n_steps = 2000\nfourier.period = 20.0\n",
        )
        assert main(["fourier", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_tail_energy_is_not_negative(self, tmp_path):
        # the benchmark's seed-1 evolve_spin_a scenario over two periods
        cfg = write_config(
            tmp_path,
            "model.kind = spin_half\nmodel.variant = a\n"
            "model.omega0 = 1.0\nmodel.omega = 0.1\n"
            "model.theta = 0.7915879516160853\n"
            f"grid.tau_end = {4 * np.pi / 0.1!r}\ngrid.n_steps = 40000\n",
        )
        out = tmp_path / "out"
        assert main(["fourier", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "fourier.json").read_text())
        assert [pair["tail_energy"] >= 0.0 for pair in payload["pairs"]] == [True]

    def test_no_period_is_config_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "model.kind = conjugated\nmodel.energies = 0, 1\n"
            "model.generator = 0, 0.1; 0.1, 0\n"
            "grid.tau_end = 20.0\ngrid.n_steps = 2000\n",
        )
        assert main(["fourier", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_conjugated_with_explicit_period(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "model.kind = conjugated\nmodel.energies = 0, 1\n"
            "model.generator = 0, 0.1; 0.1, 0\n"
            "grid.tau_end = 20.0\ngrid.n_steps = 2000\n"
            "fourier.period = 20.0\nfourier.n_harmonics = 2\n",
        )
        out = tmp_path / "out"
        assert main(["fourier", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "fourier.json").read_text())
        pair = payload["pairs"][0]
        assert pair["max_ratio"] == pytest.approx(0.1 / 1.0, abs=1e-4)

    def test_unresolved_coupling_phase_exits_3(self, tmp_path, capsys):
        # omega0 = 1e4 at dtau = 0.1: alpha advances by 1000 rad per step,
        # so arg M aliases and its line fit would read a wrong rate
        cfg = write_config(
            tmp_path,
            "model.kind = spin_half\nmodel.variant = a\n"
            "model.omega0 = 1e4\nmodel.omega = 0.1\nmodel.theta = 0.7\n"
            "grid.tau_end = 20.0\ngrid.n_steps = 200\nfourier.period = 20.0\n",
        )
        assert main(["fourier", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "PhaseUnresolved: alpha_10 advances by up to 1000 rad per step" in err
        assert "Traceback" not in err

    def test_failed_phase_fit_exits_3(self, tmp_path, capsys):
        # at tau_end = 1e-300 the least-squares line fit does not converge;
        # the Hellmann-Feynman gamma keeps the coupling finite there, so the
        # d = 2 steps do not stop the run before the fit
        cfg = write_config(
            tmp_path,
            "model.kind = spin_half\nmodel.variant = a\n"
            "model.omega0 = 1.0\nmodel.omega = 0.1\nmodel.theta = 0.7\n"
            "grid.tau_end = 1e-300\ngrid.n_steps = 100\nspectrum.gamma_method = hf\n",
        )
        with np.errstate(all="ignore"):
            code = main(["fourier", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "PhaseNotLinear: the line fit of the phase of pair (1, 0) failed" in err
        assert "Traceback" not in err


class TestSweep:
    def sweep_config(self, values="0.4, 0.2, 0.1, 0.05"):
        return (
            "model.kind = spin_half\nmodel.variant = a\n"
            "model.omega0 = 1.0\nmodel.omega = 0.1\n"
            "model.theta = 0.7853981633974483\n"
            "grid.tau_end = 20.0\ngrid.n_steps = 4000\n"
            f"sweep.parameter = model.omega\nsweep.values = {values}\n"
        )

    def test_deficit_shrinks_per_halving(self, tmp_path):
        cfg = write_config(tmp_path, self.sweep_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        header, data = read_csv(out / "sweep.csv")
        assert header[0] == "model.omega"
        assert list(data[:, 0]) == [0.4, 0.2, 0.1, 0.05]
        deficits = 1.0 - data[:, 1]
        ratios = deficits[:-1] / deficits[1:]
        # analytic ratio 4 (1 + w^2/4 + w cos) / (1 + w^2 + 2 w cos): 3.07..3.7 here
        assert np.all(ratios > 2.5) and np.all(ratios < 4.6)

    def test_row_order_and_threads_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, self.sweep_config())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(
            ["sweep", "--config", str(cfg), "--out", str(out2), "--threads", "4"]
        ) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    @pytest.mark.parametrize(
        "command, value",
        [("sweep", "0"), ("sweep", "-4"), ("check", "-4"), ("evolve", "0"), ("sweep", "2.5"),
         ("fourier", "many")],
    )
    def test_threads_below_one_or_not_an_integer_exits_2(self, tmp_path, capsys, command, value):
        cfg = write_config(tmp_path, self.sweep_config(values="0.4"))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--threads: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["evolve", "sweep"])
    def test_threshold_on_a_command_that_does_not_read_it_exits_2(
        self, tmp_path, capsys, command
    ):
        # only check and fourier compare values with the threshold
        cfg = write_config(tmp_path, self.sweep_config(values="0.4"))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--threshold", "0.5"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threshold 0.5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_csv_bytes_match_per_field_format(self, tmp_path):
        cfg = write_config(tmp_path, self.sweep_config(values="0.4, 0.2"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "sweep_report.json").read_text())["rows"]
        keys = ["value", "min_p_exact", "FirstOrder", "SecondOrder", "RatioFirstIter",
                "CompactFunctional"]
        lines = ["model.omega,min_P_exact,FirstOrder,SecondOrder,RatioFirstIter,"
                 "CompactFunctional"]
        lines += [",".join(f"{row[key]:.16e}" for key in keys) for row in rows]
        expected = "\n".join(lines) + "\n"
        assert (out / "sweep.csv").read_bytes() == expected.encode()

    def test_single_point_matches_evolve(self, tmp_path):
        cfg = write_config(tmp_path, self.sweep_config(values="0.1"), name="single.cfg")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        _, sweep_data = read_csv(out / "sweep.csv")

        evolve_cfg = write_config(
            tmp_path, SPIN_A_CONFIG.replace("20000", "4000"), name="ev.cfg"
        )
        assert main(["evolve", "--config", str(evolve_cfg), "--out", str(out)]) == 0
        report = json.loads((out / "evolve_report.json").read_text())
        assert sweep_data[0, 1] == pytest.approx(report["min_p_exact"], abs=1e-12)

    def test_monotone_in_theta(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "model.kind = spin_half\nmodel.variant = a\n"
            "model.omega0 = 1.0\nmodel.omega = 0.1\nmodel.theta = 0.1\n"
            "grid.tau_end = 20.0\ngrid.n_steps = 4000\n"
            "sweep.parameter = model.theta\n"
            f"sweep.values = 0.0, {np.pi/8!r}, {np.pi/4!r}\n",
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        _, data = read_csv(out / "sweep.csv")
        first_order = data[:, 2]
        assert first_order[0] < first_order[1] < first_order[2]
        assert first_order[0] == pytest.approx(0.0, abs=1e-20)

    def test_unknown_parameter_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            self.sweep_config().replace("sweep.parameter = model.omega",
                                        "sweep.parameter = model.banana"),
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: neither the import of the CLI nor
    # a run of it may load any part of it
    cfg = write_config(
        tmp_path,
        SPIN_A_CONFIG.replace("grid.tau_end = 20.0", "grid.tau_end = 2.0").replace(
            "grid.n_steps = 20000", "grid.n_steps = 200"
        ),
    )
    script = (
        "import sys\n"
        "import adiorbit.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        f"code = adiorbit.cli.main(['check', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "assert code == 0, code\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'run'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "conditions.json").exists()


def test_check_loads_only_what_it_runs(tmp_path):
    # the package imports its submodules on first use, and the CLI imports
    # fourier only for the fourier command and the thread pool only for a
    # threaded sweep
    cfg = write_config(
        tmp_path,
        SPIN_A_CONFIG.replace("grid.tau_end = 20.0", "grid.tau_end = 2.0").replace(
            "grid.n_steps = 20000", "grid.n_steps = 200"
        ),
    )
    script = (
        "import sys\n"
        "import adiorbit\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('adiorbit.'))\n"
        "assert loaded == ['adiorbit.errors'], loaded\n"
        "import adiorbit.cli\n"
        f"code = adiorbit.cli.main(['check', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "assert code == 0, code\n"
        "assert 'adiorbit.fourier' not in sys.modules, 'fourier'\n"
        "assert 'concurrent.futures' not in sys.modules, 'thread pool'\n"
        "assert 'adiorbit._csv' not in sys.modules, 'csv formatter'\n"
        "from adiorbit import *\n"
        "assert all(name in globals() for name in adiorbit.__all__)\n"
        "assert 'adiorbit.fourier' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


class TestReleasedEigenvectors:
    """Each pipeline solves once: no untraced command reads V past gamma
    but for the kept column, so none re-derives it."""

    SWEEP = (
        "model.kind = spin_half\nmodel.variant = a\nmodel.omega0 = 1.0\n"
        "model.omega = 0.1\nmodel.theta = 0.7\ngrid.tau_end = 20.0\ngrid.n_steps = 4000\n"
        "evolve.initial_level = 1\n"
        "sweep.parameter = model.omega\nsweep.values = 0.4, 0.2, 0.1, 0.05\n"
    )

    @pytest.mark.parametrize(
        "command, text, points",
        [
            ("evolve", SPIN_A_CONFIG.replace("20000", "2000"), 1),
            ("check", CONJ_D5_CONFIG, 1),
            ("sweep", SWEEP, 4),
        ],
    )
    def test_one_solve_per_pipeline(self, tmp_path, monkeypatch, command, text, points):
        from adiorbit import spectrum

        solves = count_calls(monkeypatch, pipeline, "solve_quasistationary")
        # the name a released spectrum re-derives V with
        rederived = count_calls(monkeypatch, spectrum, "solve_quasistationary")
        pipelines = count_calls(monkeypatch, cli, "run_pipeline")
        cfg = write_config(tmp_path, text)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv + (["--threads", "2"] if command == "sweep" else [])) == 0
        assert len(pipelines) == points
        assert len(solves) == points
        assert rederived == []


class TestNonFiniteReport:
    # omega0 = 1e300 over steps of 1e8: the dressing phase overflows, so M
    # is NaN and the d = 2 step kernel stops there
    CONFIG = (
        SPIN_A_CONFIG.replace("model.omega0 = 1.0", "model.omega0 = 1e300")
        .replace("grid.tau_end = 20.0", "grid.tau_end = 1e10")
        .replace("grid.n_steps = 20000", "grid.n_steps = 100")
        + "sweep.parameter = model.omega\nsweep.values = 0.1, 0.2\n"
    )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["evolve", "check", "sweep"])
    def test_exits_3_at_the_step_and_writes_nothing(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert (
            "numerical failure in propagate: NonFiniteStep: "
            "step generator has a non-finite dtau * |b| (nan)"
        ) in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_run_pipeline_stops_at_the_d2_step(self, tmp_path):
        scenario = load_scenario(write_config(tmp_path, self.CONFIG))
        with pytest.raises(NonFiniteStep, match=r"non-finite dtau \* \|b\|"):
            pipeline.run_pipeline(scenario.model, scenario.grid)

    @pytest.mark.parametrize("column", ["P_first", "P_second", "P_ratio"])
    def test_non_finite_csv_column_exits_3_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, column
    ):
        name = {
            "P_first": "first_order_probability",
            "P_second": "second_order_probability",
            "P_ratio": "ratio_probability_first_iteration",
        }[column]
        original = getattr(pipeline, name)

        def with_a_nan(*args):
            curve = original(*args)
            curve[7] = np.nan
            return curve

        monkeypatch.setattr(pipeline, name, with_a_nan)
        cfg = write_config(tmp_path, SPIN_A_CONFIG.replace("20000", "200"))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert (
            "numerical failure in cli: NonFiniteReport: "
            f"evolution.csv column {column} holds nan; no output was written"
        ) in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("level, key", [(0, "min_p_exact"), (1, "max_norm_residual")])
    def test_nan_in_the_coefficients_exits_3_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, level, key
    ):
        # planted past the first STEP_CHUNK, where the run reads its
        # extremes one chunk at a time
        original = pipeline.evolve_coefficients

        def with_a_nan(*args):
            trajectory = original(*args)
            trajectory.coefficients[STEP_CHUNK + 3, level] = np.nan
            return trajectory

        monkeypatch.setattr(pipeline, "evolve_coefficients", with_a_nan)
        cfg = write_config(tmp_path, SPIN_A_CONFIG.replace("20000", "9000"))
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"NonFiniteReport: report entry {key} is nan; no output was written" in err
        assert not out.exists()

    def test_table_forms_no_callable_column(self, monkeypatch):
        # tau, |c_m|^2 and norm_residual are finite once the summary is
        # (max_norm_residual keeps NaN and is bounded by 1e-8), so only the
        # writer forms them, a block at a time
        formed = []
        monkeypatch.setattr(cli, "norm_residuals", lambda *args: formed.append("norm"))
        n_rows = 2 * STEP_CHUNK + 1
        coefficients = np.zeros((n_rows, 2), complex)
        coefficients[:, 0] = np.nan  # |c_m|^2 is a callable, so not checked
        result = SimpleNamespace(
            model=SimpleNamespace(dimension=2),
            grid=SimpleNamespace(times=lambda lo, hi: formed.append("tau")),
            initial_level=0,
            p_direct=np.zeros(n_rows),
            p_first=np.zeros(n_rows),
            p_second=np.zeros(n_rows),
            p_ratio=np.zeros(n_rows),
            coefficients=SimpleNamespace(coefficients=coefficients),
        )
        header, columns = cli._evolution_table(result)
        assert formed == []
        callables = [name for name, column in zip(header, columns) if callable(column)]
        assert callables == ["tau", "P_exact", "norm_residual", "|c_0|^2"]

    def test_steps_of_1e_302_run(self, tmp_path):
        # the differenced coupling reaches 1e285 here, whose squares
        # overflowed |b| until it was formed by hypot; over a tau of 1e-300
        # the level is kept
        text = SPIN_A_CONFIG.replace("grid.tau_end = 20.0", "grid.tau_end = 1e-300")
        cfg = write_config(tmp_path, text.replace("grid.n_steps = 20000", "grid.n_steps = 100"))
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "evolve_report.json").read_text())
        assert report["min_p_exact"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "payload, key, value",
        [
            ({"min_p_exact": float("nan")}, "min_p_exact", "nan"),
            ({"criteria": [{"value": 0.0}] * 3 + [{"value": float("inf")}]}, "criteria.3.value", "inf"),
            ({"rows": [{"min_p_exact": -float("inf")}]}, "rows.0.min_p_exact", "-inf"),
        ],
    )
    def test_finite_names_the_key(self, payload, key, value):
        with pytest.raises(NonFiniteReport) as raised:
            cli._finite(payload)
        assert str(raised.value) == f"report entry {key} is {value}; no output was written"


class TestNormGuard:
    # steps of 1e298 break unitarity: evolve used to write a norm residual
    # of 413.6 and exit 0
    CONFIG = (
        SPIN_A_CONFIG.replace("grid.tau_end = 20.0", "grid.tau_end = 1e300").replace(
            "grid.n_steps = 20000", "grid.n_steps = 100"
        )
        + "sweep.parameter = model.omega\nsweep.values = 0.1, 0.2\n"
    )

    @pytest.mark.parametrize("command", ["evolve", "check", "sweep"])
    def test_exits_3_naming_the_residual_and_writes_nothing(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure in pipeline: NormNotConserved: max norm residual" in err
        assert f"exceeds the bound {NORM_RESIDUAL_BOUND:g}" in err
        assert not out.exists()


class TestConfigErrors:
    @pytest.mark.parametrize(
        "line",
        ["model.color = red", "outputs = exact", "model.period = 0.5"],
        ids=["model_color", "outputs", "model_period"],
    )
    def test_unknown_key(self, tmp_path, line):
        cfg = write_config(tmp_path, SPIN_A_CONFIG + line + "\n")
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("grid.n_steps", "inf"),
            ("conditions.tau_end", "nan"),
            ("evolve.initial_level", "nan"),
            ("conditions.threshold", "nan"),
            ("spectrum.gap_tol", "nan"),
            ("model.omega", "-inf"),
            ("sweep.values", "0.1, nan"),
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, key, value):
        cfg = {
            "model.kind": "spin_half",
            "model.omega0": "1.0",
            "model.omega": "0.1",
            "model.theta": "0.7",
            "grid.tau_end": "20.0",
            "grid.n_steps": "200",
            "sweep.parameter": "model.omega",
            "sweep.values": "0.1",
            key: value,
        }
        path = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in cfg.items()))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("grid.n_steps 200", "expected 'key = value'"),
            ("grid.n_steps = 200", "duplicate key 'grid.n_steps'"),
        ],
        ids=["no_equals", "duplicate"],
    )
    def test_malformed_line_exits_2(self, tmp_path, capsys, line, message):
        cfg = write_config(tmp_path, SPIN_A_CONFIG + line + "\n")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_missing_grid(self, tmp_path):
        cfg = write_config(tmp_path, "model.kind = spin_half\nmodel.omega0 = 1\n")
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_file(self, tmp_path):
        assert main(
            ["evolve", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
        ) == 2

    def test_bad_matrix(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "model.kind = conjugated\nmodel.energies = 0, 1\n"
            "model.generator = 0, 0.1; 0.1\n"
            "grid.tau_end = 1.0\ngrid.n_steps = 100\n",
        )
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_bad_level(self, tmp_path):
        cfg = write_config(
            tmp_path, SPIN_A_CONFIG.replace("evolve.initial_level = 0",
                                            "evolve.initial_level = 7"),
        )
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


    @pytest.mark.parametrize(
        "command, key, value, energies",
        [
            ("check", "spectrum.gap_tol", "-1", "0, 0"),
            ("check", "conditions.threshold", "-1", "0, 1"),
            ("check", "conditions.tau_end", "-1", "0, 1"),
            ("check", "conditions.tau_end", "5", "0, 1"),
            ("fourier", "fourier.n_harmonics", "-3", "0, 1"),
            ("fourier", "fourier.n_harmonics", "1000", "0, 1"),
            ("fourier", "fourier.linearity_tol", "-1", "0, 1"),
            ("fourier", "fourier.resonance_tol", "-1", "0, 1"),
        ],
        ids=[
            "gap_tol_negative",
            "threshold_negative",
            "tau_end_negative",
            "tau_end_past_grid",
            "n_harmonics_negative",
            "n_harmonics_too_large",
            "linearity_tol_negative",
            "resonance_tol_negative",
        ],
    )
    def test_out_of_range_knob_exits_2(self, tmp_path, capsys, command, key, value, energies):
        cfg = {
            "model.kind": "conjugated",
            "model.energies": energies,
            "model.generator": "0, 0.1; 0.1, 0",
            "grid.tau_end": "1.0",
            "grid.n_steps": "100",
            "fourier.period": "1.0",
            key: value,
        }
        path = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in cfg.items()))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert key.split(".")[1] in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["tabulated"])
    def test_analytic_gauge_without_closed_form_exits_2(self, tmp_path, capsys, kind):
        table = write_tabulated(tmp_path / "const.txt", [0.0, 30.0], [SZ, SZ])
        text = (
            f"model.kind = {kind}\nmodel.path = {table}\n"
            "grid.tau_end = 20.0\ngrid.n_steps = 2000\n"
        )
        cfg = write_config(tmp_path, text + "spectrum.gauge = analytic\n")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "spectrum.gauge = analytic needs a closed-form" in capsys.readouterr().err

    def test_non_unitary_eigenbasis_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "model.kind = conjugated\nmodel.energies = 0, 1\n"
            "model.generator = 0, 0.1; 0.1, 0\nmodel.eigenbasis = 1, 0; 0, 2\n"
            "grid.tau_end = 1.0\ngrid.n_steps = 100\n",
        )
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "eigenbasis" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["inf", "nan"])
    def test_non_finite_generator_exits_2(self, tmp_path, capsys, entry):
        cfg = write_config(
            tmp_path,
            "model.kind = conjugated\nmodel.energies = 0, 1\n"
            f"model.generator = 0, {entry}; {entry}, 0\n"
            "grid.tau_end = 1.0\ngrid.n_steps = 100\n",
        )
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "model.generator" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["inf", "nan"])
    def test_non_finite_tabulated_row_exits_2(self, tmp_path, capsys, entry):
        table = tmp_path / "table.txt"
        table.write_text(f"dim=2\n0 1 0 0 0 -1 0\n1 1 0 {entry} 0 -1 0\n")
        cfg = write_config(
            tmp_path,
            f"model.kind = tabulated\nmodel.path = {table}\n"
            "grid.tau_end = 1.0\ngrid.n_steps = 100\n",
        )
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# no samples\n", "empty file"),
            ("dim=two\n0 1 0 0 0 -1 0\n1 1 0 0 0 -1 0\n", "bad dimension 'two'"),
            ("dim=2\n0 1 0 0 0 -1 0\n1 1 0 x 0 -1 0\n", "data row 1 is not numeric"),
            ("dim=2\n0 1 0 0 0 -1 0\n", "need at least two samples"),
        ],
        ids=["empty", "bad_dimension", "non_numeric", "one_sample"],
    )
    def test_malformed_table_exits_2(self, tmp_path, capsys, text, message):
        table = tmp_path / "table.txt"
        table.write_text(text)
        cfg = write_config(
            tmp_path,
            f"model.kind = tabulated\nmodel.path = {table}\n"
            "grid.tau_end = 1.0\ngrid.n_steps = 100\n",
        )
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ParseError: ") and message in err

    def test_one_level_table_exits_2(self, tmp_path, capsys):
        table = tmp_path / "one.txt"
        table.write_text("dim=1\n0 1 0\n1 1 0\n2 1 0\n")
        cfg = write_config(
            tmp_path,
            f"model.kind = tabulated\nmodel.path = {table}\n"
            "grid.tau_end = 2.0\ngrid.n_steps = 100\n",
        )
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "at least 2" in err

    @pytest.mark.parametrize("n_steps", ["1e15", "2e18", "1e19"])
    def test_grid_too_large_to_allocate_exits_2(self, tmp_path, capsys, n_steps):
        # 1e15 + 1 samples would need 7.1 PiB, more than a 128 TiB user
        # address space or any machine's memory, so the allocation fails
        # before touching memory; past 2^63 bytes the grid itself rejects
        # the step count
        cfg = write_config(tmp_path, SPIN_A_CONFIG.replace("20000", n_steps))
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_tabulated_range_exits_2(self, tmp_path, capsys):
        table = write_tabulated(tmp_path / "short.txt", [0.0, 1.0], [SZ, SZ])
        cfg = write_config(
            tmp_path,
            f"model.kind = tabulated\nmodel.path = {table}\n"
            "grid.tau_end = 2.0\ngrid.n_steps = 100\n",
        )
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "OutsideTabulatedRange" in err and "tabulated range" in err

    @pytest.mark.parametrize("command", ["evolve", "check", "fourier", "sweep"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("model.generator", "0, nonsense; 1, 0"),
            ("model.path", "/nonexistent"),
            ("model.energies", "7, 8, 9"),
            ("sweep.values", "banana"),
        ],
        ids=["generator", "path", "energies", "sweep_values"],
    )
    def test_foreign_or_bad_key_exits_2_on_every_command(
        self, tmp_path, capsys, command, key, value
    ):
        # model.generator, model.path and model.energies belong to other
        # model kinds; sweep.values is checked even where no sweep runs
        cfg = {
            "model.kind": "spin_half",
            "model.omega0": "1.0",
            "model.omega": "0.1",
            "model.theta": "0.7",
            "grid.tau_end": "20.0",
            "grid.n_steps": "200",
            "sweep.parameter": "model.omega",
            "sweep.values": "0.1",
            key: value,
        }
        path = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in cfg.items()))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err

    @pytest.mark.parametrize("command", ["evolve", "check", "fourier", "sweep"])
    def test_sweep_parameter_the_kind_never_reads_exits_2(self, tmp_path, capsys, command):
        # a conjugated model has no model.omega, so every row of this sweep
        # would be the same
        cfg = write_config(
            tmp_path,
            "model.kind = conjugated\nmodel.energies = 0, 1\n"
            "model.generator = 0, 0.1; 0.1, 0\nfourier.period = 1.0\n"
            "grid.tau_end = 1.0\ngrid.n_steps = 100\n"
            "sweep.parameter = model.omega\nsweep.values = 0.1, 0.2, 0.3\n",
        )
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "model.omega" in err

    @pytest.mark.parametrize("command", ["evolve", "check", "fourier", "sweep"])
    def test_sweep_value_the_swept_key_rejects_exits_2(self, tmp_path, capsys, command):
        # each value is parsed by grid.n_steps's own row, on every command
        cfg = write_config(
            tmp_path, SPIN_A_CONFIG + "sweep.parameter = grid.n_steps\nsweep.values = 200, 2.5\n"
        )
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "grid.n_steps" in err and "'2.5'" in err

    @pytest.mark.parametrize(
        "key, value",
        [("sweep.parameter", "model.banana"), ("fourier.period", "-1")],
        ids=["sweep_parameter", "fourier_period"],
    )
    def test_bad_value_of_a_key_check_never_reads_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, SPIN_A_CONFIG + f"{key} = {value}\n")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err


# ---- the exit-code contract over random scenario files ----------------------

# value pools; None drops the key, "@table" is the path of a valid table
_NUMBERS = ["0", "1", "-1", "0.5", "2", "3", "7", "1e-12", "1e6", "nan", "inf", "-inf"]
_JUNK = ["", "junk", "1,", "1, 2", "a", "b", "0x10", None]
_WORDS = [
    "spin_half", "conjugated", "tabulated", "continuity", "analytic", "fd", "hf",
    "model.omega", "grid.n_steps", "grid.tau_end", "@table", "missing.txt",
]
_MATRICES = [
    "0, 0.1; 0.1, 0",
    "1, 0; 0, 1",
    "0, 1j; -1j, 0",
    "0, 0.1, 0; 0.1, 0.2, 0.1; 0, 0.1, -0.3",
    "1, 2; 3, 4",
    "1, 2; 3",
    "nan, 0; 0, 0",
]
_LISTS = ["0, 1", "0, 1, 2.5", "0, 0", "1", "0.1, 0.2", "50, 100", "0.1, nan"]
_POOL = _NUMBERS + _JUNK + _WORDS + _MATRICES + _LISTS
# step counts (the grid and a swept grid.n_steps) stay at or below 100
_SMALL = [str(n) for n in (-1, 0, 1, 2, 3, 10, 64, 100)] + [
    "2.5", "nan", "inf", "junk", "0.1, 0.2", "2, 100", None,
]

_BASES = [
    {},
    {
        "model.kind": "spin_half", "model.omega0": "1", "model.omega": "0.1",
        "model.theta": "0.7", "grid.tau_end": "10", "grid.n_steps": "100",
        "sweep.parameter": "model.omega", "sweep.values": "0.1, 0.2",
    },
    {
        "model.kind": "conjugated", "model.energies": "0, 1, 2.5",
        "model.generator": "0, 0.1, 0; 0.1, 0.2, 0.1; 0, 0.1, -0.3",
        "grid.tau_end": "4", "grid.n_steps": "64", "fourier.period": "2",
    },
    {"model.kind": "tabulated", "model.path": "@table", "grid.tau_end": "3", "grid.n_steps": "50"},
]

_DIAGNOSTIC = re.compile(r"(config error:|numerical failure in \w+|error:)")


@st.composite
def scenario_texts(draw, table):
    cfg = dict(draw(st.sampled_from(_BASES)))
    for key in draw(st.lists(st.sampled_from(sorted(cli._KNOWN_KEYS)), max_size=5, unique=True)):
        small = key in ("grid.n_steps", "sweep.values")
        value = draw(st.sampled_from(_SMALL if small else _POOL))
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    return "".join(f"{k} = {v.replace('@table', str(table))}\n" for k, v in cfg.items())


def _values_for(key):
    """The pool's values that the parser in ``key``'s row accepts, plus
    "junk", which most parsers reject, and None, which drops the key."""
    parse = cli._SCHEMA[key][0]
    accepted = []
    for value in _SMALL if key in ("grid.n_steps", "sweep.values") else _POOL:
        if value is None:
            continue
        try:
            parse(key, value)
        except ConfigError:
            continue
        accepted.append(value)
    return accepted + ["junk", None]


@st.composite
def applicable_scenario_texts(draw, table):
    """A base scenario with up to five keys redrawn, each a key whose row
    applies to the base's model kind, mostly to values its parser accepts."""
    cfg = dict(draw(st.sampled_from([base for base in _BASES if "model.kind" in base])))
    kind = cfg["model.kind"]
    keys = sorted(
        key for key, row in cli._SCHEMA.items() if key != "model.kind" and row[3] in (None, (kind,))
    )
    for key in draw(st.lists(st.sampled_from(keys), max_size=5, unique=True)):
        value = draw(st.sampled_from(_values_for(key)))
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    return "".join(f"{k} = {v.replace('@table', str(table))}\n" for k, v in cfg.items())


class TestExitCodeContract:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("contract")
        h0, h1 = np.diag([-1.0, 1.0]), np.array([[-1.0, 0.5], [0.5, 1.0]])
        write_tabulated(path / "table.txt", [0.0, 2.0, 4.0], [h0, h1, h0])
        return path

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_scenario_exits_0_2_or_3(self, workdir, data):
        text = data.draw(scenario_texts(workdir / "table.txt"))
        cfg = write_config(workdir, text)
        for command in ("evolve", "check", "fourier", "sweep"):
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(cfg), "--out", str(workdir / "out")])
            assert code in (0, 2, 3), (command, text)
            if code:
                lines = err.getvalue().splitlines()
                assert any(_DIAGNOSTIC.match(line) for line in lines), (command, text, lines)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_applicable_scenario_exits_0_2_or_3(self, workdir, data):
        # only keys the model kind reads, so more scenarios reach the numerics
        text = data.draw(applicable_scenario_texts(workdir / "table.txt"))
        cfg = write_config(workdir, text)
        for command in ("evolve", "check", "fourier", "sweep"):
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(cfg), "--out", str(workdir / "out")])
            assert code in (0, 2, 3), (command, text)
            if code:
                lines = err.getvalue().splitlines()
                assert any(_DIAGNOSTIC.match(line) for line in lines), (command, text, lines)
