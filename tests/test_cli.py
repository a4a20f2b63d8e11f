import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
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


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestNonNumericConfigExit2:
    """A config value that is not a number exits 2 and names its key."""

    def test_kernel_params(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"tau1": "abc", "tau2": 1})
        assert main(["kernel", "--config", cfg]) == 2
        assert "tau1" in capsys.readouterr().err

    def test_method_options(self, three_level_files, tmp_path, capsys):
        spectrum, state = three_level_files
        cfg = write_json(tmp_path / "cfg.json", {
            "spectrum": spectrum, "rho0": state, "tau1": 1, "tau2": 1, "times": "1",
            "method": "monte_carlo", "samples": "lots"})
        assert main(["evolve", "--config", cfg]) == 2
        assert "samples" in capsys.readouterr().err

    def test_sweep_cell_value(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sweep.json", {
            "target": "rabi", "reduction": "gamma",
            "base": {"g": 1.0, "tau1": 0.2, "tau2": 1.0},
            "axes": [{"name": "n_photons", "values": [0, "x"]}]})
        assert main(["sweep", "--config", cfg]) == 2
        assert "n_photons" in capsys.readouterr().err

    @pytest.mark.parametrize("grid_points", ["many", math.inf])
    def test_grid_points(self, tmp_path, capsys, grid_points):
        cfg = write_json(tmp_path / "cfg.json", {
            "mass": 1.0, "sigma_x": 1.0, "separation_d": 12.0,
            "tau1": 0.01, "tau2": 0.01, "grid_points": grid_points})
        assert main(["scenario", "cat", "--config", cfg]) == 2
        assert "grid_points" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, doc, key", [
        (["sweep"], {"target": "rabi", "reduction": "gamma", "base": [1],
                     "axes": [{"name": "g", "values": [1.0]}]}, "base"),
        (["sweep"], {"target": "rabi", "reduction": "gamma", "base": {"tau1": 1, "tau2": 1},
                     "axes": [{"name": "g", "values": [1.0]}, 3]}, "axes"),
        (["evolve", "--method", "monte_carlo", "--seed", "-1"], {}, "seed"),
        (["scenario", "cat"], {"mass": 1.0, "sigma_x": 1.0, "separation_d": 12.0, "tau1": 0.01,
                               "tau2": 0.01, "grid_points": -1}, "grid_points"),
        (["kernel"], {"tau1": True, "tau2": 1}, "tau1"),
        (["scenario", "rabi"], {"tau1": 1, "tau2": 1, "n_photons": 1.5}, "n_photons"),
        (["evolve"], {"method": "monte_carlo", "seed": 1.5}, "seed"),
        (["kernel"], {"tau1": 1, "tau2": 1, "format": "xml"}, "format"),
        (["evolve"], {"grid_units": "no"}, "grid_units"),
        (["check", "--instances", "-1"], {}, "instances"),
        (["check", "--states", "-5"], {}, "states"),
    ])
    def test_refused_value(self, three_level_files, tmp_path, capsys, argv, doc, key):
        if argv[0] == "evolve":
            spectrum, state = three_level_files
            doc = {"spectrum": spectrum, "rho0": state, "tau1": 1, "tau2": 1, "times": "1", **doc}
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main([*argv, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [(None, "Is a directory"),
                                                  (b"\xff{", "malformed JSON")])
    def test_unreadable_config_file(self, tmp_path, capsys, content, message):
        path = tmp_path / "cfg"
        path.mkdir() if content is None else path.write_bytes(content)
        assert main(["kernel", "--tau1", "1", "--tau2", "1", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("num, message", [
    (1e9, "num must be at most 1000000"),
    (math.inf, "cannot convert float infinity"),
])
def test_time_count_above_cap_exit_2(three_level_files, tmp_path, capsys, num, message):
    # refused before anything is allocated; only refused counts are run
    spectrum, state = three_level_files
    cfg = write_json(tmp_path / "cfg.json", {
        "spectrum": spectrum, "rho0": state, "tau1": 1, "tau2": 1,
        "times": {"start": 0, "stop": 1, "num": num}})
    assert main(["evolve", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


#: Values of the wrong type, out of range or non-finite; the numbers are
#: small so that no accepted value makes a command allocate much.
CONFUSED = [None, True, False, "x", "2", "", [], [1.0], {}, {"num": 2}, -1, 0, 2, 1.5, 2.0,
            math.inf, math.nan]

FUZZ_CONFIGS = {
    ("kernel",): {"tau1": 1.0, "tau2": 1.0, "t": 1.0, "grid_points": 8, "format": "csv"},
    ("evolve",): {"tau1": 1.0, "tau2": 1.0, "times": [0.0, 1.0], "method": "monte_carlo",
                  "seed": 1, "samples": 20, "tol": 1e-8, "format": "json", "grid_units": False},
    ("scenario", "osc"): {"tau1": 1.0, "tau2": 1.0, "omega": 1.0, "a0_re": 1.0, "a0_im": 0.0,
                          "times": [0.0, 1.0], "grid_units": False},
    ("scenario", "cat"): {"tau1": 0.5, "tau2": 1.0, "mass": 1.0, "sigma_x": 1.0, "hbar": 1.0,
                          "separation_d": 4.0, "grid_points": 16, "times": [0.0, 1.0]},
    ("scenario", "rabi"): {"tau1": 0.1, "tau2": 0.1, "g": 1.0, "n_photons": 1,
                           "times": {"start": 0, "stop": 2, "num": 5}},
    ("scenario", "epr"): {"tau1": 1.0, "tau2": 1.0, "omega0": 1.0, "flight_length": 1.0,
                          "speed": 1.0, "times": [0.0, 0.5], "t": 1.0},
    # no null for check: its default counts would run the full battery
    ("check",): {"seed": 1, "instances": 1, "states": 1},
    ("sweep",): {"target": "oscillator", "reduction": "modulus_at_t", "tau1": 1.0,
                 "base": {"tau2": 1.0, "t": 1.0},
                 "axes": [{"name": "omega", "values": [0.5, 1.0]},
                          {"name": "t", "values": {"start": 0, "stop": 1, "num": 2}}]},
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    save_spectrum(EnergySpectrum([0.0, 0.7, 1.9]), d / "s.json")
    save_state(make_density_from_pure([1.0, 1.0 + 0.5j, 0.3]), d / "r.json")
    return d


@pytest.mark.filterwarnings("ignore::cronon.errors.NumericWarning")  # crude grids warn
@pytest.mark.parametrize("command", sorted(FUZZ_CONFIGS), ids="-".join)
@given(data=st.data())
def test_confused_config_exit_code(fuzz_dir, command, data):
    import contextlib
    import io
    import re

    keys = sorted(FUZZ_CONFIGS[command]) + (["spectrum", "rho0"] if command == ("evolve",) else [])
    values = st.sampled_from([v for v in CONFUSED if v is not None or command != ("check",)])
    doc = {"spectrum": str(fuzz_dir / "s.json"), "rho0": str(fuzz_dir / "r.json"),
           **FUZZ_CONFIGS[command],
           **data.draw(st.dictionaries(st.sampled_from(keys), values, max_size=3))}
    out = fuzz_dir / "out"
    for path in (out, fuzz_dir / "out.summary.json"):
        path.unlink(missing_ok=True)
    cfg = write_json(fuzz_dir / "cfg.json", doc)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main([*command, "--config", cfg, "--out", str(out)])
    assert code in (0, 2, 3, 4)
    if code == 0:
        written = [p.read_text() for p in (out, fuzz_dir / "out.summary.json") if p.exists()]
        for text in (stdout.getvalue(), *written):
            assert not re.search(r"\bnan\b", text, re.IGNORECASE), doc


def reference_evolve_outputs(rho0, spectrum, params, times, method):
    """CSV and JSON of `evolve` over `times` by a per-time loop."""
    from cronon import evolve

    dim = rho0.dim
    header = ["t"]
    for i in range(dim):
        for j in range(dim):
            header += [f"re_{i}_{j}", f"im_{i}_{j}"]
    lines = [",".join(header)]
    states = []
    for t in times:
        rho = evolve(rho0, spectrum, params, t, method)
        flat = rho.entries.reshape(-1)
        row = [t] + [part for z in flat for part in (z.real, z.imag)]
        lines.append(",".join(repr(float(v)) for v in row))
        states.append({"re": rho.entries.real.tolist(), "im": rho.entries.imag.tolist()})
    doc = {"times": times, "dim": dim, "states": states}
    return "\n".join(lines) + "\n", json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestEvolveOutputsMatchPerTimeLoop:
    @pytest.mark.parametrize("method, times", [
        ("unitary", "0,0.3,1.1,2.5,4,7.25,9.5"),
        ("closed_form", "0,0.3,1.1,2.5,4,7.25,9.5"),
        ("finite_difference", "0,1.1,2.2,3.3000000000000003,8.8"),
        ("second_order", "0,0.3,1.1,2.5,4,7.25,9.5"),
        ("milburn", "0,0.3,1.1,2.5,4,7.25,9.5"),
        ("quadrature", "0,0.7,2.5"),
        ("monte_carlo", "0,0.7,2.5"),
    ])
    @pytest.mark.parametrize("chunk", [2**18, 20])  # one time chunk, and several
    def test_csv_and_json_byte_identical(self, three_level_files, tmp_path, monkeypatch,
                                         method, times, chunk):
        from cronon import EvolutionMethod, KernelParams, load_spectrum, load_state

        monkeypatch.setattr("cronon.propagator._CHUNK", chunk)
        spectrum, state = three_level_files
        args = ["evolve", "--spectrum", spectrum, "--rho0", state, "--tau1", "0.8",
                "--tau2", "1.1", "--times", times, "--method", method,
                "--seed", "5", "--samples", "3000"]
        got = {}
        for fmt in ("csv", "json"):
            out = tmp_path / f"out.{fmt}"
            assert main([*args, "--format", fmt, "--out", str(out)]) == 0
            got[fmt] = out.read_text()
        want = reference_evolve_outputs(
            load_state(state), load_spectrum(spectrum), KernelParams(0.8, 1.1),
            [float(v) for v in times.split(",")],
            EvolutionMethod.parse(method, seed=5, count=3000))
        assert (got["csv"], got["json"]) == want

    def test_non_psd_factor_exit_3_names_first_bad_time(self, three_level_files, monkeypatch,
                                                        capsys):
        from cronon.propagator import FACTORS, Method

        def inflated(w, params, t, method):  # |F| = 3 from t = 1.5 on: not PSD
            return np.where(t >= 1.5, 3.0, 1.0) * np.exp(-1j * w * t)

        monkeypatch.setitem(FACTORS, Method.CLOSED_FORM, inflated)
        monkeypatch.setattr("cronon.propagator._CHUNK", 20)  # the bad time is in chunk 2
        spectrum, state = three_level_files
        code = main(["evolve", "--spectrum", spectrum, "--rho0", state, "--tau1", "1",
                     "--tau2", "1", "--times", "0,0.5,1,2,3,4"])
        assert code == 3
        err = capsys.readouterr().err
        assert "t=2.0" in err and "positivity" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 in the rates
@pytest.mark.parametrize("argv, doc, code, named", [
    # the Chernoff cutoff once overflowed (exit 1) or came out NaN (exit 2)
    (["kernel", "--tau2", "1e300", "--t", "1"], {}, 0, None),
    (["kernel", "--tau2", "1", "--t", "5e-324"], {}, 0, None),
    # t/tau2 = inf: NaN coherences, once written (dim 2) or fed to eigvalsh (dim 3)
    (["evolve", "--tau2", "5e-324", "--times", "0,1"], {"energies": [0, 1]}, 3, "t=1.0"),
    (["evolve", "--tau2", "5e-324", "--times", "0,1"], {"energies": [0, 1, 2.5]}, 3, "t=1.0"),
    # gamma = inf: the envelope exp(-gamma t) was NaN at t = 0
    (["scenario", "rabi"], {"tau1": 0.1, "tau2": 0.1, "g": 1e300, "times": [0, 1]}, 0, None),
    (["scenario", "epr"], {"tau2": 1, "omega0": 5e-324, "speed": 5e-324, "times": [0, 1]}, 2,
     "flight_length / speed"),
])
def test_extreme_finite_input_exits_cleanly(tmp_path, capsys, argv, doc, code, named):
    if argv[0] == "evolve":  # doc is the spectrum; the state is |+> on the first two levels
        save_spectrum(EnergySpectrum(doc["energies"]), tmp_path / "s.json")
        save_state(make_density_from_pure([1.0, 1.0] + [0.0] * (len(doc["energies"]) - 2)),
                   tmp_path / "r.json")
        argv = [*argv, "--spectrum", str(tmp_path / "s.json"), "--rho0", str(tmp_path / "r.json")]
        doc = {}
    out = tmp_path / "out.csv"
    cfg = write_json(tmp_path / "cfg.json", {"tau1": 1, **doc})
    assert main([*argv, "--config", cfg, "--out", str(out)]) == code
    captured = capsys.readouterr()
    if named:
        assert named in captured.err
    if code == 0:
        header, rows = parse_csv(out.read_text())
        if argv[0] == "kernel":  # the density at t' = 0 is +inf for shape < 1, by definition
            rows = rows[1:]
        assert np.all(np.isfinite(rows)), rows
        assert "NaN" not in captured.out + "".join(
            p.read_text() for p in tmp_path.glob("out.csv.summary.json"))


def test_closed_form_commands_never_import_scipy(tmp_path):
    # one fresh interpreter: every command but `check` runs without scipy
    script = """
import json, sys
from pathlib import Path
import cronon
from cronon import EnergySpectrum, make_density_from_pure, save_spectrum, save_state
from cronon.cli import main

d = Path(sys.argv[1])
save_spectrum(EnergySpectrum([0.0, 0.7, 1.9]), d / "s.json")
save_state(make_density_from_pure([1.0, 1.0 + 0.5j, 0.3]), d / "r.json")
(d / "cat.json").write_text(json.dumps({"mass": 1.0, "sigma_x": 1.0,
                                         "separation_d": 12.0, "tau1": 0.01, "tau2": 0.01}))
(d / "sweep.json").write_text(json.dumps({
    "target": "factor", "reduction": "modulus_at_t", "base": {"tau1": 0.5, "tau2": 1.0},
    "axes": [{"name": "omega", "values": [0.5, 1.0]}, {"name": "t", "values": [1.0, 2.0]}]}))
common = ["--tau1", "0.5", "--tau2", "1"]
runs = [
    ["kernel", *common, "--t", "2", "--out", str(d / "k.csv")],
    ["evolve", *common, "--spectrum", str(d / "s.json"), "--rho0", str(d / "r.json"),
     "--times", "0,1,2", "--out", str(d / "e.csv")],
    ["scenario", "osc", *common, "--out", str(d / "osc.csv")],
    ["scenario", "rabi", *common, "--out", str(d / "rabi.csv")],
    ["scenario", "epr", *common, "--out", str(d / "epr.csv")],
    ["scenario", "cat", "--config", str(d / "cat.json"), "--out", str(d / "cat.csv")],
    ["sweep", "--config", str(d / "sweep.json"), "--out", str(d / "sweep.csv")],
]
codes = [main(argv) for argv in runs]
assert codes == [0] * len(runs), codes
assert "scipy" not in sys.modules, "a closed-form command imported scipy"
assert main(["check", "--instances", "5", "--states", "5", "--out", str(d / "c.json")]) == 0
"""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cronon

    env = dict(os.environ, PYTHONPATH=str(Path(cronon.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
