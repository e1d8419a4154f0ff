import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from adiorbit import cli, pipeline
from adiorbit.cli import load_scenario, main, run_evolve

from conftest import SZ, write_tabulated

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
        scenario = load_scenario(write_config(tmp_path, SPIN_A_CONFIG.replace("20000", "5000")))
        assert scenario.grid.n_steps + 1 > cli._CSV_BLOCK_ROWS  # more than one write
        out = tmp_path / "out"
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
        lines = ["tau,P_exact,P_direct,P_first,P_second,P_ratio,norm_residual,|c_0|^2,|c_1|^2"]
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
            grid=SimpleNamespace(samples=columns[0]),
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
            cli._write_evolution_csv(tmp_path / "evolution.csv", result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * table_bytes

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
    """The Schrodinger route runs only when states or p_direct is read."""

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
        assert result.states is result.states
        assert len(calls) == 1


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
