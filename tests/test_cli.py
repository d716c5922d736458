import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rdcert.cli
from rdcert.cli import main
from rdcert.config import ConfigError, build_initial, parse_config, parse_matrix

TH31_CFG = """
[domain]
L = 3.141592653589793
N = 96
bc = dirichlet

[kinetics]
matrix = 1.0
nonlinearity = saturated_power
p = 2.0
c0_v0 = 0.05

[diffusion]
v0 = 2.0

[run]
T = 10.0
dt = 0.002
ic = mode(1, 0.0797884560802865)
"""

CERT31_CFG = TH31_CFG + """
[certificate]
family = exponential
nu = 0.5
alpha_factor = 0.15
"""

TH34_CFG = """
[domain]
L = 4.0
N = 64
bc = dirichlet

[kinetics]
matrix = 1,2;-2,-2
nonlinearity = saturated_power
p = 2.0
c0_v0 = 0.05

[modulation]
kind = power_decay
v0 = 0.35
exponent = 2.0

[diffusion]
kind = power_decay
v0 = 0.175, 3.5
exponent = 2.0

[run]
T = 0.5
dt = 0.01
ic = mode(1, 0.1, 0.1)

[certificate]
nu = 1.0
mu_split = 0.5
"""

DISPERSION_CFG = """
[domain]
L = 4.0
N = 64
bc = dirichlet

[kinetics]
matrix = 1,2;-2,-2

[diffusion]
v0 = 0.5, 10.0

[run]
T = 1.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_report(out):
    return json.loads((out / "report.json").read_text())


class TestConfigParsing:
    def test_missing_required_key_names_it(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "[domain]\nN = 10\nbc = dirichlet\n"))
        with pytest.raises(ConfigError, match=r"\[domain\].L"):
            cfg.require("domain", "L")

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[domain\].bogus"):
            parse_config(write_cfg(tmp_path, "[domain]\nbogus = 3\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[mystery\]"):
            parse_config(write_cfg(tmp_path, "[mystery]\nx = 1\n"))

    def test_bad_number_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[domain\].L"):
            parse_config(write_cfg(tmp_path, "[domain]\nL = alpha\n"))

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_record_every_must_be_positive(self, tmp_path, value):
        with pytest.raises(ConfigError, match=r"\[run\].record_every"):
            parse_config(write_cfg(tmp_path, f"[run]\nrecord_every = {value}\n"))

    def test_comments_and_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "[domain]\nL = 1.0  # length\n"))
        assert cfg.get("domain", "L") == 1.0
        assert cfg.get("run", "scheme") == "two_stage"
        assert cfg.get("theorem", "envelope_slack") == 0.02

    def test_matrix_parsing(self):
        assert parse_matrix("2.0").tolist() == [[2.0]]
        assert parse_matrix("1,2;-2,-2").tolist() == [[1.0, 2.0], [-2.0, -2.0]]
        with pytest.raises(ConfigError):
            parse_matrix("1,2,3;4,5,6;7,8,9")
        with pytest.raises(ConfigError):
            parse_matrix("a,b;c,d")

    def test_ic_variants(self, tmp_path):
        base = "[domain]\nL = 1.0\nN = 16\nbc = dirichlet\n[kinetics]\nmatrix = 1.0\n"
        cfg = parse_config(write_cfg(tmp_path, base + "[run]\nT = 1\nic = noise(0.2)\nseed = 3\n"))
        grid_field = build_initial(cfg, _grid(cfg), 1)
        assert np.max(np.abs(grid_field.values)) <= 0.2
        cfg2 = parse_config(write_cfg(tmp_path, base + "[run]\nT = 1\nic = mode(2, 0.5)\n",
                                      name="b.cfg"))
        field2 = build_initial(cfg2, _grid(cfg2), 1)
        assert field2.values.max() <= 0.5
        with pytest.raises(ConfigError, match=r"\[run\].ic"):
            cfg3 = parse_config(write_cfg(tmp_path, base + "[run]\nT = 1\nic = wiggle(1)\n",
                                          name="c.cfg"))
            build_initial(cfg3, _grid(cfg3), 1)

    def test_ic_file_roundtrip(self, tmp_path):
        from rdcert.grid import Grid1D
        from rdcert.reporting import write_csv
        g = Grid1D(1.0, 16, "dirichlet")
        values = np.sin(np.pi * g.x)
        snap = tmp_path / "snap.csv"
        write_csv(snap, ["x", "u1"], [g.x, values])
        base = ("[domain]\nL = 1.0\nN = 16\nbc = dirichlet\n[kinetics]\nmatrix = 1.0\n"
                f"[run]\nT = 1\nic = file({snap})\n")
        cfg = parse_config(write_cfg(tmp_path, base, name="d.cfg"))
        field = build_initial(cfg, g, 1)
        assert field.values[0] == pytest.approx(values)


def _grid(cfg):
    from rdcert.config import build_grid
    return build_grid(cfg)


class TestExitCodes:
    def test_missing_domain_length(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[domain]\nN = 32\nbc = dirichlet\n[kinetics]\n"
                                   "matrix = 1.0\n[diffusion]\nv0 = 1.0\n[run]\nT = 1.0\n")
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "[domain].L" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate", "--config", "x", "--out", "y"]) == 1

    @pytest.mark.parametrize("command, cfg_text, old, new, key", [
        (["run-theorem", "3.4"], TH34_CFG, "mu_split = 0.5", "mu_split = 1.5",
         "[certificate].mu_split"),
        (["run-theorem", "3.1"], TH31_CFG, "dt = 0.002", "dt = -0.1", "[run].dt"),
        (["run-theorem", "3.1"], TH31_CFG, "dt = 0.002", "dt = 20.0", "[run].dt"),
        # errors the library raises on its own inputs
        (["check-certificate"], CERT31_CFG, "nu = 0.5", "nu = 0.5\nmu0 = -1", "mu0"),
        (["run-theorem", "3.1"], TH31_CFG, "[run]", "[theorem]\ngrid_points = 1\n\n[run]",
         "grid points"),
    ], ids=["mu_split-above-1", "dt-negative", "dt-above-T", "mu0-negative",
            "grid-points-1"])
    def test_bad_run_values_are_config_errors(self, tmp_path, capsys, command, cfg_text,
                                              old, new, key):
        assert old in cfg_text
        if cfg_text is TH34_CFG:  # the unchanged 3.1 configs run in other tests
            assert main([*command, "--config", write_cfg(tmp_path, cfg_text),
                         "--out", str(tmp_path / "ok")]) == 0
            capsys.readouterr()
        path = write_cfg(tmp_path, cfg_text.replace(old, new), name="bad.cfg")
        code = main([*command, "--config", path, "--out", str(tmp_path / "bad")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and key in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_run_theorem_pass(self, tmp_path):
        path = write_cfg(tmp_path, TH31_CFG)
        out = tmp_path / "out"
        code = main(["run-theorem", "3.1", "--config", path, "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report["envelope_verified"] is True
        assert report["hypotheses_passed"] is True
        assert report["worst_ratio"] <= 1.0 + 0.02
        assert (out / "series.csv").exists()

    def test_run_theorem_not_applicable(self, tmp_path, capsys):
        text = TH31_CFG.replace("matrix = 1.0", "matrix = 5.0")  # a0 > d0 c(Omega)
        path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        code = main(["run-theorem", "3.1", "--config", path, "--out", str(out)])
        assert code == 2
        assert read_report(out)["status"] == "not_applicable"

    def test_modulated_bounded_weights_must_be_positive(self, tmp_path, capsys):
        text = TH34_CFG.replace("mu_split = 0.5", "mu0 = -1.0\nmu1 = 2.0")
        out = tmp_path / "out"
        code = main(["run-theorem", "3.4", "--config", write_cfg(tmp_path, text),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        report = read_report(out)
        assert report["status"] == "not_applicable"
        assert report["reason"] == "needs mu0, mu1, nu > 0"
        assert "Traceback" not in err

    def test_run_theorem_envelope_exit(self, tmp_path):
        # negative slack turns the exact t = 0 boundary into a violation
        text = TH31_CFG + "\n[theorem]\nenvelope_slack = -0.5\n"
        path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        code = main(["run-theorem", "3.1", "--config", path, "--out", str(out)])
        assert code == 3
        report = read_report(out)
        assert report["hypotheses_passed"] is True
        assert report["envelope_violations"] > 0

    def test_check_certificate_both_ways(self, tmp_path):
        base = CERT31_CFG
        path = write_cfg(tmp_path, base)
        out = tmp_path / "ok"
        assert main(["check-certificate", "--config", path, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["pass"] is True
        assert set(report) >= {"pass", "worst_residual", "c9_slack", "grid_points", "horizon"}
        bad = base.replace("nu = 0.5", "nu = 5.0")  # decay claim too fast
        path_bad = write_cfg(tmp_path, bad, name="bad.cfg")
        out_bad = tmp_path / "bad"
        assert main(["check-certificate", "--config", path_bad, "--out", str(out_bad)]) == 2
        assert read_report(out_bad)["pass"] is False

    @pytest.mark.parametrize("c0", ["50.0", "0.0"])
    def test_c0_without_nonlinearity_is_not_in_alpha(self, tmp_path, c0):
        # the reaction never uses c0 without a nonlinearity, so alpha does not either
        text = (CERT31_CFG.replace("nonlinearity = saturated_power", "nonlinearity = none")
                .replace("c0_v0 = 0.05", f"c0_v0 = {c0}").replace("T = 10.0", "T = 2.0")
                .replace("alpha_factor = 0.15", "alpha_factor = 1.0"))
        path = write_cfg(tmp_path, text)
        assert main(["run-theorem", "3.1", "--config", path, "--out", str(tmp_path / "rt")]) == 0
        assert read_report(tmp_path / "rt")["hypotheses"]["nonlinearity_small_enough"]
        assert main(["check-certificate", "--config", path, "--out", str(tmp_path / "cc")]) == 0

    @pytest.mark.parametrize("grid_points, argv", [("1", []), ("10000", ["--grid-points", "1"])],
                             ids=["config", "option"])
    def test_grid_points_checked_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                   grid_points, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate ran before the grid points were checked")

        monkeypatch.setattr(rdcert.cli, "simulate", refuse)
        text = TH31_CFG + f"\n[theorem]\ngrid_points = {grid_points}\n"
        code = main(["run-theorem", "3.1", "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out"), *argv])
        assert code == 1
        assert capsys.readouterr().err == \
            "config error: [theorem].grid_points: need at least 2 grid points\n"

    def test_theorem_alpha_factor_is_unknown(self, tmp_path, capsys):
        text = TH31_CFG + "\n[theorem]\nalpha_factor = 1.0\n"
        code = main(["run-theorem", "3.1", "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "unknown key [theorem].alpha_factor" in capsys.readouterr().err


DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


class TestExtremeInputs:
    """Demo configs with one value pushed to an extreme but valid (or just
    invalid) setting end in an exit code and a report or a one-line message,
    never a traceback.  The runs are shortened; the powers that overflow on
    the full-length runs overflow on the shortened ones too."""

    OVERFLOWING = [
        # the measured factor c_hat**(p-1) m2_hat**(3(p-1)/4) overflows
        (["run-theorem", "3.2"], "theorem32",
         {"T = 50.0": "T = 5.0", "p = 2.0": "p = 1e3"}, 0),
        (["run-theorem", "3.3"], "theorem33",
         {"T = 50.0": "T = 5.0", "p = 2.0": "p = 1e308"}, 0),
        # the exponential scenario's cap g0**-(q-1) overflows
        (["run-theorem", "3.1"], "theorem31",
         {"T = 20.0": "T = 2.0", "p = 2.0": "p = 1e308"}, 0),
    ]
    OVERFLOWING_IDS = ["th32-p1e3", "th33-p1e308", "th31-p1e308"]

    @staticmethod
    def edited_config(tmp_path, name, edits):
        text = (DEMO_CONFIGS / f"{name}.cfg").read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        return write_cfg(tmp_path, text)

    @pytest.mark.parametrize("command, name, edits, code", [
        *OVERFLOWING,
        # the measured factor itself is past the double range
        (["run-theorem", "3.2"], "theorem32",
         {"T = 50.0": "T = 5.0", "p = 2.0": "p = 1e4",
          "ic = mode(1, 0.42)": "ic = mode(1, 1.0)"}, 2),
        (["analyze-dispersion"], "dispersion", {"L = 4.0": "L = 0"}, 1),
        (["simulate"], "theorem31", {"L = 3.141592653589793": "L = -1"}, 1),
    ], ids=[*OVERFLOWING_IDS, "th32-p1e4", "dispersion-L0", "simulate-L-negative"])
    def test_exit_code_without_traceback(self, tmp_path, capsys, command, name, edits, code):
        out = tmp_path / "out"
        got = main([*command, "--config", self.edited_config(tmp_path, name, edits),
                    "--out", str(out)])
        err = capsys.readouterr().err
        assert got == code
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("config error: [domain].L:") and err.count("\n") == 1
        else:
            report = read_report(out)
            if code == 2:
                assert report["status"] == "not_applicable"
                assert "alpha_factor" in report["reason"]
                assert report["constants"]["alpha_factor"] == "inf"

    @pytest.mark.parametrize("command, name, edits, code", OVERFLOWING, ids=OVERFLOWING_IDS)
    def test_overflow_prints_no_warning(self, tmp_path, command, name, edits, code):
        # a separate interpreter with the default warning filters, so that
        # numpy's warnings reach stderr as a user would see them
        env = dict(os.environ, PYTHONWARNINGS="default", PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-m", "rdcert", *command,
                               "--config", self.edited_config(tmp_path, name, edits),
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env)
        assert done.returncode == code
        assert "RuntimeWarning" not in done.stderr


class TestCommandOutputs:
    def test_simulate_outputs(self, tmp_path):
        path = write_cfg(tmp_path, TH31_CFG.replace("T = 10.0", "T = 0.5"))
        out = tmp_path / "out"
        code = main(["simulate", "--config", path, "--out", str(out), "--plots"])
        assert code == 0
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "t,g,sup,h1_semi,h2"
        assert len(series) == 252  # header + 251 steps
        assert (out / "plots_norms.svg").exists()
        assert any((out / "snapshots").iterdir())

    def test_simulate_reports_blow_up(self, tmp_path):
        text = TH31_CFG.replace("matrix = 1.0", "matrix = 4000.0").replace(
            "nonlinearity = saturated_power", "nonlinearity = none")
        path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        code = main(["simulate", "--config", path, "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report["status"] == "blow_up"
        assert 0.0 < report["time_of_failure"] <= 10.0

    def test_dispersion_report(self, tmp_path):
        path = write_cfg(tmp_path, DISPERSION_CFG)
        out = tmp_path / "out"
        assert main(["analyze-dispersion", "--config", path, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["band"][0] == pytest.approx(math.sqrt((9 - math.sqrt(41)) / 10), abs=1e-10)
        assert report["band"][1] == pytest.approx(math.sqrt((9 + math.sqrt(41)) / 10), abs=1e-10)
        assert report["conditions"]["turing_unstable"] is True
        header = (out / "dispersion.csv").read_text().splitlines()[0]
        assert header == "k,detM,trM,reL1,imL1,reL2,imL2"

    def test_estimate_constants(self, tmp_path):
        path = write_cfg(tmp_path, TH31_CFG.replace("T = 10.0", "T = 1.0"))
        out = tmp_path / "out"
        assert main(["estimate-constants", "--config", path, "--out", str(out)]) == 0
        report = read_report(out)
        assert set(report) >= {"M2_hat", "c_hat", "C", "pointwise_violations"}
        assert report["c_hat"] == pytest.approx(0.5284, abs=2e-3)
        assert report["pointwise_violations"] == 0

    def test_convergence_command(self, tmp_path):
        text = ("[domain]\nL = 1.0\nN = 32\nbc = dirichlet\n"
                "[kinetics]\nmatrix = 0.0\n[diffusion]\nv0 = 1.0\n"
                "[run]\nT = 0.5\n"
                "[convergence]\nspace_ns = 24,48,96\nspace_dt = 0.0005\n"
                "time_n = 601\ntime_dts = 0.1,0.05,0.025\n")
        path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["convergence-test", "--config", path, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["pass"] is True
        assert report["p_space"] >= 1.9
        assert report["p_time"] >= 1.9

    def test_report_reproducibility(self, tmp_path):
        path = write_cfg(tmp_path, TH31_CFG.replace("T = 10.0", "T = 1.0")
                         .replace("ic = mode(1, 0.0797884560802865)", "ic = noise(0.05)"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run-theorem", "3.1", "--config", path, "--out", str(out1),
                     "--seed", "7"]) == 0
        assert main(["run-theorem", "3.1", "--config", path, "--out", str(out2),
                     "--seed", "7"]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()

    def test_seed_changes_noise_run(self, tmp_path):
        path = write_cfg(tmp_path, TH31_CFG.replace("T = 10.0", "T = 1.0")
                         .replace("ic = mode(1, 0.0797884560802865)", "ic = noise(0.05)"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run-theorem", "3.1", "--config", path, "--out", str(out1), "--seed", "7"])
        main(["run-theorem", "3.1", "--config", path, "--out", str(out2), "--seed", "8"])
        assert (out1 / "series.csv").read_bytes() != (out2 / "series.csv").read_bytes()


def old_csv_text(header, columns):
    """write_csv's output as first written: one formatting call per value."""
    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return f"{float(value):.17g}"
        return str(value)
    cols = [np.asarray(c) for c in columns]
    lines = [",".join(header)]
    lines += [",".join(fmt(c[i]) for c in cols) for i in range(len(cols[0]))]
    return "\n".join(lines) + "\n"


def test_write_csv_bytes_match_value_by_value_formatting(tmp_path):
    from rdcert.reporting import write_csv
    rng = np.random.default_rng(4)
    floats = np.concatenate([[math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.0 / 3.0,
                              1.7976931348623157e308, 1e22, 123456789.0],
                             rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6)])
    n = len(floats)
    singles = np.resize(np.array([math.nan, -math.inf, -0.0, 1.0 / 3.0, 3.4e38, 1e-45],
                                 dtype=np.float32), n)
    columns = [floats, np.arange(-3, n - 3), singles,
               np.arange(n) % 2 == 0, [f"s{i}" for i in range(n)],
               np.array([1, 2.5, "x", None] * 4, dtype=object)]
    header = ["f", "i", "f32", "b", "s", "o"]
    path = tmp_path / "cols.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == old_csv_text(header, columns).encode("utf-8")
    write_csv(path, ["empty"], [[]])
    assert path.read_bytes() == b"empty\n"
