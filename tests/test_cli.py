import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cronon import DensityMatrix, EnergySpectrum, make_density_from_pure
from cronon.cli import main
from cronon.io import save_spectrum, save_state


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [[float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    return header, rows


@pytest.fixture
def three_level_files(tmp_path):
    spectrum = tmp_path / "spectrum.json"
    state = tmp_path / "state.json"
    save_spectrum(EnergySpectrum([0.0, 0.7, 1.9]), spectrum)
    save_state(make_density_from_pure([1.0, 1.0 + 0.5j, 0.3]), state)
    return str(spectrum), str(state)


class TestKernelCommand:
    def test_exponential_pdf_and_moments(self, tmp_path, capsys):
        out = tmp_path / "kernel.csv"
        code = main(["kernel", "--tau1", "1", "--tau2", "1", "--t", "1",
                     "--out", str(out)])
        assert code == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["t_prime", "pdf"]
        for tp, pdf in rows[:200]:
            assert_allclose(pdf, math.exp(-tp), rtol=1e-12)
        moments = json.loads(capsys.readouterr().out)
        assert moments["mean"] == 1.0

    def test_moments_reference(self, tmp_path, capsys):
        out = tmp_path / "kernel.csv"
        code = main(["kernel", "--tau1", "2", "--tau2", "1", "--t", "5",
                     "--out", str(out)])
        assert code == 0
        moments = json.loads(capsys.readouterr().out)
        assert moments["mean"] == 10.0
        assert_allclose(moments["sigma"], 2.0 * math.sqrt(5.0), rtol=1e-12)

    def test_grid_covers_kernel_mass(self, tmp_path, capsys):
        out = tmp_path / "kernel.csv"
        main(["kernel", "--tau1", "1.5", "--tau2", "0.5", "--t", "2",
              "--out", str(out)])
        _, rows = parse_csv(out.read_text())
        grid = np.array([r[0] for r in rows])
        pdf = np.array([r[1] for r in rows])
        assert float(np.trapezoid(pdf, grid)) >= 1.0 - 1e-6

    def test_json_format(self, capsys):
        code = main(["kernel", "--tau1", "1", "--tau2", "1", "--t", "2",
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"t_prime", "pdf", "moments"}

    def test_missing_params_exit_2(self, capsys):
        assert main(["kernel", "--t", "1"]) == 2
        assert "tau1" in capsys.readouterr().err

    def test_invalid_params_exit_2(self, capsys):
        assert main(["kernel", "--tau1", "-1", "--tau2", "1", "--t", "1"]) == 2


class TestEvolveCommand:
    def test_unitary_diagonal_constant(self, tmp_path, capsys):
        spectrum = tmp_path / "s.json"
        state = tmp_path / "r.json"
        save_spectrum(EnergySpectrum([0.0, 1.0]), spectrum)
        save_state(DensityMatrix(np.diag([0.25, 0.75])), state)
        code = main(["evolve", "--spectrum", str(spectrum), "--rho0", str(state),
                     "--tau1", "1", "--tau2", "1", "--times", "0,1,2,3",
                     "--method", "unitary"])
        assert code == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header[:3] == ["t", "re_0_0", "im_0_0"]
        for row in rows:
            assert row[1:] == rows[0][1:]

    def test_closed_form_matches_quadrature(self, three_level_files, capsys):
        spectrum, state = three_level_files
        outputs = []
        for method in ("closed_form", "quadrature"):
            code = main(["evolve", "--spectrum", spectrum, "--rho0", state,
                         "--tau1", "0.8", "--tau2", "1.1", "--times", "0,1.3,4.2",
                         "--method", method])
            assert code == 0
            outputs.append(parse_csv(capsys.readouterr().out)[1])
        a, b = (np.asarray(o) for o in outputs)
        assert float(np.max(np.abs(a - b))) <= 1e-7

    def test_finite_difference_off_grid_exit_2(self, three_level_files, capsys):
        spectrum, state = three_level_files
        code = main(["evolve", "--spectrum", spectrum, "--rho0", state,
                     "--tau1", "1", "--tau2", "1", "--times", "2.5",
                     "--method", "finite_difference"])
        assert code == 2
        assert "cronon grid" in capsys.readouterr().err

    @pytest.mark.parametrize("times, method, bad", [
        ("nan", "finite_difference", "nan"),
        ("nan", "closed_form", "nan"),
        ("1,inf", "quadrature", "inf"),
        ("-1", "unitary", "-1.0"),
        ("abc", "closed_form", "abc"),
    ])
    def test_bad_times_exit_2(self, three_level_files, capsys, times, method, bad):
        spectrum, state = three_level_files
        code = main(["evolve", "--spectrum", spectrum, "--rho0", state,
                     "--tau1", "1", "--tau2", "1", "--times", times, "--method", method])
        assert code == 2
        err = capsys.readouterr().err
        assert "times" in err and bad in err

    def test_single_t_flag(self, three_level_files, capsys):
        spectrum, state = three_level_files
        code = main(["evolve", "--spectrum", spectrum, "--rho0", state,
                     "--tau1", "1", "--tau2", "1", "--t", "1.5"])
        assert code == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert [r[0] for r in rows] == [1.5]

    def test_grid_units_times(self, three_level_files, capsys):
        spectrum, state = three_level_files
        code = main(["evolve", "--spectrum", spectrum, "--rho0", state,
                     "--tau1", "1", "--tau2", "0.5", "--times", "1,2",
                     "--method", "closed_form", "--grid-units"])
        assert code == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert [r[0] for r in rows] == [0.5, 1.0]

    def test_malformed_state_file_exit_2(self, tmp_path, capsys):
        spectrum = tmp_path / "s.json"
        save_spectrum(EnergySpectrum([0.0, 1.0]), spectrum)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["evolve", "--spectrum", str(spectrum), "--rho0", str(bad),
                     "--tau1", "1", "--tau2", "1", "--times", "1"])
        assert code == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_invalid_input_state_exit_2(self, tmp_path, capsys):
        spectrum = tmp_path / "s.json"
        state = tmp_path / "r.json"
        save_spectrum(EnergySpectrum([0.0, 1.0]), spectrum)
        save_state(DensityMatrix(np.diag([1.0, 0.1])), state)  # trace 1.1
        code = main(["evolve", "--spectrum", str(spectrum), "--rho0", str(state),
                     "--tau1", "1", "--tau2", "1", "--times", "1"])
        assert code == 2
        assert "trace" in capsys.readouterr().err

    def test_monte_carlo_byte_identical(self, three_level_files, tmp_path):
        spectrum, state = three_level_files
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main(["evolve", "--spectrum", spectrum, "--rho0", state,
                         "--tau1", "1", "--tau2", "1", "--times", "0.5,1.5",
                         "--method", "monte_carlo", "--seed", "42",
                         "--samples", "5000", "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestScenarioCommand:
    def test_rabi_summary_gamma(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "g": 1.0, "n_photons": 0, "tau1": 0.05, "tau2": 0.05,
            "times": {"start": 0.0, "stop": 10.0, "num": 11},
        }))
        out = tmp_path / "rabi.csv"
        code = main(["scenario", "rabi", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "rabi.csv.summary.json").read_text())
        assert_allclose(summary["gamma"], 10.0 * math.log(1.0025), rtol=1e-12)
        header, rows = parse_csv(out.read_text())
        assert header == ["t", "d_bar", "envelope"]
        assert rows[0][1] == 1.0

    def test_epr_initial_anticorrelation(self, tmp_path):
        out = tmp_path / "epr.csv"
        code = main(["scenario", "epr", "--tau1", "1", "--tau2", "1",
                     "--times", "0,1", "--out", str(out)])
        assert code == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["t", "E_xx", "E_yy", "E_zz", "singlet_fidelity"]
        assert rows[0][3] == -1.0  # E_zz at t = 0
        assert rows[1][3] == -1.0  # and for all later times

    def test_osc_summary_lists_frozen_frequencies(self, tmp_path):
        out = tmp_path / "osc.csv"
        code = main(["scenario", "osc", "--tau1", "0.5", "--tau2", "0.5",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "osc.csv.summary.json").read_text())
        assert_allclose(summary["milburn_frozen_frequencies"][0],
                        2.0 * math.pi / 0.5, rtol=1e-12)
        assert summary["closed_form_gamma_at_frozen"][0] > 0.0

    def test_cat_density_mass(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mass": 1.0, "sigma_x": 1.0, "separation_d": 12.0,
            "tau1": 0.01, "tau2": 0.01, "times": [0.0, 1.0],
        }))
        out = tmp_path / "cat.csv"
        code = main(["scenario", "cat", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "cat.csv.summary.json").read_text())
        for mass in summary["density_mass"].values():
            assert abs(mass - 1.0) <= 1e-6
        assert summary["omega_if"] == 3.0  # hbar D / (4 m sigma_x^3)

    @pytest.mark.parametrize("name, flags", [
        ("rabi", ["--times", "nan"]),
        ("osc", ["--times", "0,-1"]),
        ("epr", ["--t", "nan"]),
        ("epr", ["--times", "inf"]),
    ])
    def test_bad_times_exit_2(self, tmp_path, capsys, name, flags):
        out = tmp_path / "out.csv"
        code = main(["scenario", name, "--tau1", "1", "--tau2", "1", *flags,
                     "--out", str(out)])
        assert code == 2
        assert "times must be finite and non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scenario_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "bogus", "--tau1", "1", "--tau2", "1"])
        assert exc.value.code == 2

    def test_model_mismatch_exit_4(self, tmp_path, monkeypatch, capsys):
        from cronon.errors import ModelMismatchError

        def broken(params):
            raise ModelMismatchError("calibration drifted",
                                     formula_value=2.0, oracle_value=1.0)

        monkeypatch.setattr("cronon.cli.interference_frequency", broken)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mass": 1.0, "sigma_x": 1.0, "separation_d": 12.0,
            "tau1": 0.01, "tau2": 0.01, "times": [0.0],
        }))
        code = main(["scenario", "cat", "--config", str(cfg)])
        assert code == 4
        err = capsys.readouterr().err
        assert "formula=2.0" in err and "oracle=1.0" in err


class TestNumericFailureExit:
    def test_unconvergent_quadrature_exit_3(self, tmp_path, capsys):
        # an extreme frequency at a hopeless tolerance exhausts the budget
        spectrum = tmp_path / "s.json"
        state = tmp_path / "r.json"
        save_spectrum(EnergySpectrum([0.0, 1e7]), spectrum)
        save_state(make_density_from_pure([1.0, 1.0]), state)
        code = main(["evolve", "--spectrum", str(spectrum), "--rho0", str(state),
                     "--tau1", "1", "--tau2", "1", "--times", "1",
                     "--method", "quadrature", "--tol", "1e-14"])
        assert code == 3
        assert "converge" in capsys.readouterr().err


class TestCheckCommand:
    def test_small_battery_passes(self, capsys):
        code = main(["check", "--instances", "10", "--states", "10"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == 0
        assert doc["tm_violations"] == 0
        assert doc["instances"] == 10
        assert doc["ehrenfest_max_residual"] < 1e-10


class TestSweepCommand:
    def test_rabi_gamma_monotone_in_photon_number(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "target": "rabi", "reduction": "gamma",
            "base": {"g": 1.0, "tau1": 0.2, "tau2": 1.0},
            "axes": [{"name": "n_photons", "values": [0, 1, 2, 3, 4, 5]}],
        }))
        code = main(["sweep", "--config", str(cfg)])
        assert code == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["n_photons", "value"]
        gammas = [r[1] for r in rows]
        assert all(b > a for a, b in zip(gammas, gammas[1:]))

    def test_oversized_sweep_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "target": "factor", "reduction": "modulus_at_t",
            "base": {"tau1": 1.0, "tau2": 1.0, "t": 1.0},
            "axes": [
                {"name": "omega", "values": {"start": 0, "stop": 1, "num": 1001}},
                {"name": "t", "values": {"start": 1, "stop": 2, "num": 1001}},
            ],
        }))
        code = main(["sweep", "--config", str(cfg)])
        assert code == 2
        assert "allow-large" in capsys.readouterr().err

    def test_workers_do_not_change_output(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "target": "factor", "reduction": "modulus_at_t",
            "base": {"tau1": 0.5, "tau2": 1.0},
            "axes": [
                {"name": "omega", "values": [0.1, 0.5, 1.0, 2.0]},
                {"name": "t", "values": [0.5, 1.0, 2.0]},
            ],
        }))
        outs = []
        for workers, name in ((1, "a.csv"), (4, "b.csv")):
            out = tmp_path / name
            code = main(["sweep", "--config", str(cfg), "--workers", str(workers),
                         "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_lexicographic_cell_order(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "target": "factor", "reduction": "modulus_at_t",
            "base": {"tau1": 0.5, "tau2": 1.0},
            "axes": [
                {"name": "omega", "values": [1.0, 2.0]},
                {"name": "t", "values": [1.0, 2.0]},
            ],
        }))
        assert main(["sweep", "--config", str(cfg)]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert [(r[0], r[1]) for r in rows] == [
            (1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)
        ]
