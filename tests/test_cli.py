import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdcert.cli
from rdcert.cli import main
from rdcert.config import ConfigError, build_initial, build_system, parse_config, parse_matrix
from rdcert.grid import poincare_constant
from rdcert.profiles import eval_profile, gamma_of_t
from rdcert.solver import simulate

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

    @pytest.mark.parametrize("text", [
        "[domain]\nL = 1.0\nL = 2.0\n",
        "[domain]\nL = 1.0\n[domain]\nN = 32\n",
        "L = 1.0\n[domain]\nN = 32\n",
        "[domain]\nL = 1.0\nthis line has no delimiter\n",
    ], ids=["repeated-key", "repeated-section", "line-before-section", "unparsable-line"])
    def test_malformed_config_is_one_line_error(self, tmp_path, capsys, text):
        code = main(["simulate", "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()  # nor a run_meta.json in it

    @pytest.mark.parametrize("old, new, message", [
        ("[diffusion]\nv0 = 2.0", "[modulation]\nexponent = 1.0\n[diffusion]\nv0 = 2.0",
         "[modulation].exponent is not used by kind = constant"),
        ("[diffusion]\nv0 = 2.0", "[modulation]\nkind = power_growth\nexponent = 1.0\n"
                                  "rate = 0.5\n[diffusion]\nv0 = 2.0",
         "[modulation].rate is not used by kind = power_growth"),
        ("[diffusion]\nv0 = 2.0", "[diffusion]\nv0 = 2.0\nrate = 0.0",
         "[diffusion].rate is not used by kind = constant"),
        ("[diffusion]\nv0 = 2.0", "[diffusion]\nkind = exponential\nv0 = 2.0\nrate = 0.1\n"
                                  "exponent = 1.0",
         "[diffusion].exponent is not used by kind = exponential"),
        ("c0_v0 = 0.05", "c0_v0 = 0.05\nc0_kind = exponential\nc0_rate = -0.1\nc0_exponent = 2.0",
         "[kinetics].c0_exponent is not used by c0_kind = exponential"),
        ("c0_v0 = 0.05", "c0_v0 = 0.05\nc0_rate = -0.1",
         "[kinetics].c0_rate is not used by c0_kind = constant"),
    ], ids=["modulation-exponent", "modulation-rate", "diffusion-rate", "diffusion-exponent",
            "c0-exponent", "c0-rate"])
    def test_profile_key_the_kind_does_not_use(self, tmp_path, capsys, old, new, message):
        assert old in TH31_CFG
        path = write_cfg(tmp_path, TH31_CFG.replace(old, new))
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("c0_keys", [
        "c0_v0 = 0.05\nc0_offset = -0.1",
        "c0_v0 = 0.05\nc0_kind = exponential\nc0_rate = -0.1\nc0_offset = -0.01",
        "c0_v0 = -0.05\nc0_kind = power_growth\nc0_exponent = 1.0\nc0_offset = 0.1",
    ], ids=["negative-at-0", "negative-in-the-limit", "negative-after-t-1"])
    @pytest.mark.parametrize("command", [["check-certificate"], ["run-theorem", "3.1"]])
    def test_c0_negative_at_some_time(self, tmp_path, capsys, command, c0_keys):
        # check-certificate evaluates no reaction, so it is the config that
        # keeps a negative strength, and with it alpha < 0, out
        text = CERT31_CFG.replace("c0_v0 = 0.05", c0_keys).replace("T = 10.0", "T = 0.5")
        assert main([*command, "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("config error: [kinetics]: the c0 profile must be "
                                           "nonnegative for every t >= 0\n")

    def test_profile_keys_the_kind_uses(self, tmp_path):
        text = TH31_CFG.replace("c0_v0 = 0.05", "c0_v0 = 0.05\nc0_kind = exponential\n"
                                                "c0_rate = -0.1\nc0_offset = 0.01")
        text = text.replace("[diffusion]\nv0 = 2.0", "[modulation]\nkind = power_growth\n"
                            "exponent = 0.5\n[diffusion]\nkind = power_decay\nv0 = 2.0\n"
                            "exponent = 1.0\noffset = 0.5")
        spec = build_system(parse_config(write_cfg(tmp_path, text)))
        kin = spec.kinetics
        assert (kin.c0.kind, kin.c0.rate, kin.c0.exponent, kin.c0.offset) == \
            ("exponential", -0.1, 0.0, 0.01)
        assert (kin.modulation.kind, kin.modulation.exponent, kin.modulation.rate) == \
            ("power_growth", 0.5, 0.0)
        assert [(d.kind, d.exponent, d.rate, d.offset) for d in spec.diffusion] == \
            [("power_decay", 1.0, 0.0, 0.5)]

    def test_dispersion_modes_past_the_samples(self, tmp_path, capsys):
        path = write_cfg(tmp_path, DISPERSION_CFG + "\n[dispersion]\nk_max = 1e9\n")
        code = main(["analyze-dispersion", "--config", path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "more than the 400 samples" in err and err.count("\n") == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate", "--config", "x", "--out", "y"]) == 1

    @pytest.mark.parametrize("command, cfg_text, old, new, key", [
        (["run-theorem", "3.4"], TH34_CFG, "mu_split = 0.5", "mu_split = 1.5",
         "[certificate].mu_split"),
        # every scenario reads the bounded weights, 3.1 too
        (["run-theorem", "3.1"], TH31_CFG, "[run]", "[certificate]\nmu_split = 1.5\n\n[run]",
         "[certificate].mu_split"),
        (["run-theorem", "3.1"], TH31_CFG, "dt = 0.002", "dt = -0.1", "[run].dt"),
        (["run-theorem", "3.1"], TH31_CFG, "dt = 0.002", "dt = 20.0", "[run].dt"),
        # errors the library raises on its own inputs
        (["check-certificate"], CERT31_CFG, "nu = 0.5", "nu = 0.5\nmu0 = -1", "mu0"),
        (["run-theorem", "3.1"], TH31_CFG, "[run]", "[theorem]\ngrid_points = 1\n\n[run]",
         "grid points"),
    ], ids=["mu_split-above-1", "mu_split-above-1-3.1", "dt-negative", "dt-above-T",
            "mu0-negative", "grid-points-1"])
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
        assert read_report(tmp_path / "rt")["hypotheses"]["comparison_inequality"]
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

    def test_zero_initial_data_decided_before_simulating(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate ran on zero initial data")

        monkeypatch.setattr(rdcert.cli, "simulate", refuse)
        text = TH31_CFG.replace("ic = mode(1, 0.0797884560802865)", "ic = mode(0, 0.1)")
        assert text != TH31_CFG
        out = tmp_path / "out"
        code = main(["run-theorem", "3.1", "--config", write_cfg(tmp_path, text),
                     "--out", str(out)])
        assert code == 2
        assert read_report(out) == {"theorem": "3.1", "status": "not_applicable",
                                    "reason": "zero initial data: the scenarios assume g(0) > 0"}

    @pytest.mark.parametrize("ic, code", [("mode(1, 0.0797884560802865)", 1),
                                          ("mode(0, 0.1)", 2)], ids=["data", "zero-data"])
    def test_zero_data_comes_before_a_mid_run_profile_failure(self, tmp_path, capsys, ic, code):
        # the diffusion 2/(1 + t) - 1 turns non-positive at t = 1, mid-run
        text = TH31_CFG.replace("ic = mode(1, 0.0797884560802865)", f"ic = {ic}").replace(
            "[diffusion]\nv0 = 2.0", "[diffusion]\nkind = power_decay\nv0 = 2.0\n"
            "exponent = 1.0\noffset = -1.0")
        assert "offset = -1.0" in text
        out = tmp_path / "out"
        assert main(["run-theorem", "3.1", "--config", write_cfg(tmp_path, text),
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 1:
            assert err == ("config error: profile declared positive evaluated to a "
                           "value <= 0\n")
        else:
            assert read_report(out)["status"] == "not_applicable"

    @pytest.mark.parametrize("cfg_text, which, old, new, code", [
        # a ConfigError raised after the simulation, inside the command
        (TH34_CFG, "3.4", "mu_split = 0.5", "mu_split = 1.5", 1),
        (TH31_CFG, "3.1", "matrix = 1.0", "matrix = 5.0", 2),
        (TH31_CFG, "3.1", "[run]", "[theorem]\nenvelope_slack = -0.5\n\n[run]", 3),
    ], ids=["config-error", "not-applicable", "envelope"])
    def test_run_meta_on_every_exit(self, tmp_path, capsys, cfg_text, which, old, new, code):
        assert old in cfg_text
        out = tmp_path / "out"
        assert main(["run-theorem", which, "--config",
                     write_cfg(tmp_path, cfg_text.replace(old, new)), "--out", str(out)]) == code
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["command"] == "run-theorem"
        assert meta["exit_code"] == code
        assert (out / "report.json").exists() == (code != 1)

    def test_theorem_alpha_factor_is_unknown(self, tmp_path, capsys):
        text = TH31_CFG + "\n[theorem]\nalpha_factor = 1.0\n"
        code = main(["run-theorem", "3.1", "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "unknown key [theorem].alpha_factor" in capsys.readouterr().err


DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


class TestFilesystemErrors:
    """An --out that cannot be a directory and an ic file that cannot be read
    each end in exit 1 and one stderr line, not a traceback."""

    @pytest.mark.parametrize("out", ["file", "file/sub"], ids=["existing-file", "under-a-file"])
    def test_out_that_is_not_a_directory(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("")
        code = main(["simulate", "--config", write_cfg(tmp_path, TH31_CFG),
                     "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error: --out ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("path", ["missing.csv", "."], ids=["missing", "directory"])
    def test_ic_file_that_cannot_be_read(self, tmp_path, capsys, path):
        text = TH31_CFG.replace("ic = mode(1, 0.0797884560802865)",
                                f"ic = file({tmp_path / path})")
        out = tmp_path / "out"
        code = main(["simulate", "--config", write_cfg(tmp_path, text), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: [run].ic: cannot read ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert json.loads((out / "run_meta.json").read_text())["exit_code"] == 1


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
        # the growth residual's mu**(q-1) of the exponential certificate overflows
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

    def test_bounded_cap_past_the_double_range(self, tmp_path, capsys):
        # q = (1e4 + 3)/4: the closed-form cap mu0**(q - 1) of 3.3 has no double value
        out = tmp_path / "out"
        path = self.edited_config(tmp_path, "theorem33", {
            "T = 50.0": "T = 1.0", "p = 2.0": "p = 1e4",
            "mu_split = 0.5": "mu0 = 2.0\nmu1 = 10.0\nalpha_factor = 0.9"})
        code = main(["run-theorem", "3.3", "--config", path, "--out", str(out)])
        assert code in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err
        assert read_report(out)["hypothesis_details"]["closed_form_cap"] == "inf"
        assert json.loads((out / "run_meta.json").read_text())["exit_code"] == code

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
        meta = read_report(out)["metadata"]
        assert (meta["steps"], meta["solves"]) == (250, 500)  # two solves a step with a reaction
        # the snapshots are one .npy array and one column of times
        cfg = parse_config(path)
        traj = simulate(build_system(cfg), cfg.require("run", "T"), dt=cfg.get("run", "dt"),
                        record_every=cfg.get("run", "record_every"),
                        scheme=cfg.get("run", "scheme"))
        stored = np.load(out / "snapshots.npy")
        assert stored.dtype == traj.states.dtype and stored.shape == traj.states.shape
        assert stored.tobytes() == traj.states.tobytes()
        times = (out / "snapshot_times.csv").read_text().splitlines()
        assert times[0] == "t"
        assert [float(t) for t in times[1:]] == traj.snapshot_times.tolist()
        assert not (out / "snapshots").exists()
        again = tmp_path / "again"
        assert main(["simulate", "--config", path, "--out", str(again)]) == 0
        for name in ("snapshots.npy", "snapshot_times.csv", "series.csv", "report.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes(), name

    def test_restart_from_snapshots(self, tmp_path):
        # README's recipe: a kept state written as an x, u1, ..., un CSV for ic = file(path)
        from rdcert import Grid1D
        from rdcert.reporting import write_csv
        path = write_cfg(tmp_path, TH34_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        states = np.load(out / "snapshots.npy")
        assert states.shape == (51, 2, 64)
        x = Grid1D(4.0, 64, "dirichlet").x
        restart = tmp_path / "restart.csv"
        write_csv(restart, ["x"] + [f"u{i + 1}" for i in range(states.shape[1])],
                  [x, *states[-1]])
        cfg = parse_config(write_cfg(tmp_path, TH34_CFG.replace(
            "ic = mode(1, 0.1, 0.1)", f"ic = file({restart})"), name="restart.cfg"))
        assert build_initial(cfg, build_system(cfg).grid, 2).values.tobytes() == \
            states[-1].tobytes()

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

    def test_dispersion_csv_eigenvalues_are_the_complex_sqrt_pair(self, tmp_path):
        from test_stability import complex_sqrt_pair
        samples = 3 * 2 ** 15 + 7  # three full blocks and a ragged tail
        path = write_cfg(tmp_path, DISPERSION_CFG + f"\n[dispersion]\nsamples = {samples}\n")
        out = tmp_path / "out"
        assert main(["analyze-dispersion", "--config", path, "--out", str(out)]) == 0
        rows = (out / "dispersion.csv").read_text().splitlines()
        assert rows[0] == "k,detM,trM,reL1,imL1,reL2,imL2" and len(rows) == samples + 1
        k, det, tr, re1, im1, re2, im2 = np.array([[float(v) for v in row.split(",")]
                                                   for row in rows[1:]]).T
        lam1, lam2 = complex_sqrt_pair(tr, det)
        for got, want in ((re1, lam1.real), (im1, lam1.imag), (re2, lam2.real), (im2, lam2.imag)):
            assert got.tobytes() == want.tobytes()

    def test_certificate_residuals_are_on_the_linspace_grid(self, tmp_path):
        points = 3 * 2 ** 15 + 7
        path = write_cfg(tmp_path, CERT31_CFG + f"\n[theorem]\ngrid_points = {points}\n")
        out = tmp_path / "out"
        assert main(["check-certificate", "--config", path, "--out", str(out)]) == 0
        rows = (out / "residuals.csv").read_text().splitlines()
        assert rows[0] == "t,c8_residual" and len(rows) == points + 1
        t = np.array([float(row.split(",")[0]) for row in rows[1:]])
        assert t.tobytes() == np.linspace(0.0, 10.0, points).tobytes()

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

    @pytest.mark.parametrize("old,new", [("time_dts = 0.2,0.1,0.05,0.025", "time_dts = 0.2"),
                                         ("space_ns = 32,64,128", "space_ns = 32")])
    def test_convergence_needs_two_levels(self, tmp_path, capsys, old, new):
        # one level gives no slope: not a fitted order, but a config error
        text = (DEMO_CONFIGS / "convergence.cfg").read_text()
        assert old in text
        path = write_cfg(tmp_path, text.replace(old, new))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["convergence-test", "--config", path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "at least two" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not caught
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("command, name, code", [
        (["simulate"], "theorem31", 0),
        (["run-theorem", "3.1"], "theorem31", 3),
        (["estimate-constants"], "theorem31", 3),
        (["convergence-test"], "convergence", 3),
    ], ids=["simulate", "run-theorem", "estimate-constants", "convergence-test"])
    def test_blow_up_is_reported(self, tmp_path, capsys, command, name, code):
        # main reports a solver blow-up the same way for every integrating command
        text, count = re.subn(r"(?m)^matrix = .*$", "matrix = 4000.0",
                              (DEMO_CONFIGS / f"{name}.cfg").read_text())
        assert count == 1
        out = tmp_path / "out"
        assert main([*command, "--config", write_cfg(tmp_path, text),
                     "--out", str(out)]) == code
        report = read_report(out)
        t = report["time_of_failure"]
        assert 0.0 < t < 1.0
        expected = {"status": "blow_up", "time_of_failure": t}
        if command[0] == "run-theorem":
            expected["theorem"] = "3.1"
        assert report == expected
        assert capsys.readouterr().err == f"blow-up at t = {t:.6g}: reported\n"
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["command"] == command[0]
        assert meta["exit_code"] == code

    def test_convergence_levels_in_any_order(self, tmp_path):
        # the errors fall as the step shrinks, whichever way the levels are listed
        text = (DEMO_CONFIGS / "convergence.cfg").read_text()
        old = "time_dts = 0.2,0.1,0.05,0.025"
        assert old in text
        path = write_cfg(tmp_path, text.replace(old, "time_dts = 0.025,0.05,0.1,0.2"))
        out = tmp_path / "out"
        assert main(["convergence-test", "--config", path, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["pass"] is True
        assert report["time_dts"] == [0.025, 0.05, 0.1, 0.2]
        errors = report["time_errors"]
        assert errors == sorted(errors)
        assert report["p_time"] == pytest.approx(2.0, abs=0.1)

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

    def test_repeated_calls_share_no_arguments(self, tmp_path, capsys):
        # main() builds its parser once per process; options given to one
        # call must not carry over to the next, and usage errors still exit 1
        path = write_cfg(tmp_path, TH31_CFG.replace("T = 10.0", "T = 1.0")
                         .replace("ic = mode(1, 0.0797884560802865)", "ic = noise(0.05)"))
        runs = {name: tmp_path / name for name in ("plain", "options", "again")}
        assert main(["run-theorem", "3.1", "--config", path, "--out", str(runs["plain"])]) == 0
        assert main(["run-theorem", "3.1", "--config", path, "--out", str(runs["options"]),
                     "--seed", "7", "--grid-points", "5000"]) == 0
        assert main(["run-theorem", "3.9", "--config", path, "--out", "x"]) == 1
        assert main(["run-theorem", "3.1", "--seed", "7"]) == 1
        assert "usage error:" in capsys.readouterr().err
        assert main(["run-theorem", "3.1", "--config", path, "--out", str(runs["again"])]) == 0
        assert rdcert.cli._build_parser() is rdcert.cli._build_parser()
        grid_points = {name: read_report(out)["certificate_check"]["grid_points"]
                       for name, out in runs.items()}
        assert grid_points == {"plain": 10_000, "options": 5000, "again": 10_000}
        series = {name: (out / "series.csv").read_bytes() for name, out in runs.items()}
        assert series["again"] == series["plain"] != series["options"]
        assert (runs["again"] / "report.json").read_bytes() == \
            (runs["plain"] / "report.json").read_bytes()

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


# check-certificate needs a certificate family, and a measured alpha factor
# where the nonlinearity is on; run-theorem picks the family of its scenario
CERTIFICATE_KEYS = {
    "theorem31": "\n[certificate]\nfamily = exponential\nnu = 0.5\nalpha_factor = 0.15\n",
    "theorem32": "family = power\nalpha_factor = 0.9\n",
    "theorem33": "family = bounded\nalpha_factor = 0.9\n",
    "theorem34_L2": "family = power\nalpha_factor = 0.9\n",
    "theorem34_L4": "family = bounded\nalpha_factor = 0.9\n",
}


def short_demo(name: str, T: str) -> str:
    text = (DEMO_CONFIGS / f"{name}.cfg").read_text()
    assert len(re.findall(r"(?m)^T = ", text)) == 1
    return re.sub(r"(?m)^T = .*$", f"T = {T}", text)


class TestOneSigma:
    """check-certificate and run-theorem build sigma through the same
    function, so on the same system they reach the same verdict."""

    CASES = {name: (name, "", "") for name in
             ("theorem32", "theorem33", "theorem34_L2", "theorem34_L4")}
    # a constant [modulation] is a linear rate that does not decay: 3.2 reads k = 0
    CASES["theorem32-constant-modulation"] = (
        "theorem32", "[modulation]\nkind = power_decay\nv0 = 1.0\nexponent = 1.0",
        "[modulation]\nkind = constant\nv0 = 1.0")

    @pytest.mark.parametrize("label", CASES)
    def test_commands_agree(self, tmp_path, label):
        name, old, new = self.CASES[label]
        text = short_demo(name, "2.0")
        assert old in text
        path = write_cfg(tmp_path, text.replace(old, new) + CERTIFICATE_KEYS[name])
        which = f"{name[7]}.{name[8]}"
        main(["check-certificate", "--config", path, "--out", str(tmp_path / "cc")])
        main(["run-theorem", which, "--config", path, "--out", str(tmp_path / "rt")])
        checked = read_report(tmp_path / "cc")
        theorem = read_report(tmp_path / "rt")["certificate_check"]
        assert checked["pass"] == theorem["pass"]
        assert checked["horizon"] == theorem["horizon"] == 2.0
        assert checked["worst_residual"] == pytest.approx(theorem["worst_residual"],
                                                          rel=1e-12, abs=0.0)

    def test_reports_evaluated_points(self, tmp_path):
        # demo 3.1's certificate is decided from a few cells of the 10 000-point
        # grid; both commands report how many points were evaluated
        path = write_cfg(tmp_path, short_demo("theorem31", "2.0") + CERTIFICATE_KEYS["theorem31"])
        main(["check-certificate", "--config", path, "--out", str(tmp_path / "cc")])
        main(["run-theorem", "3.1", "--config", path, "--out", str(tmp_path / "rt")])
        for report in (read_report(tmp_path / "cc"), read_report(tmp_path / "rt")["certificate_check"]):
            assert report["grid_points"] == 10_000
            assert 2 <= report["evaluated_points"] < 2_500

    def test_system_sigma_is_the_dissipation_rate(self):
        # the two-component modulated pair: c(Omega) min_i d_i(t) + gamma(t)
        # as the energy estimate has it, bit for bit
        sys_spec = build_system(parse_config(str(DEMO_CONFIGS / "theorem34_L4.cfg")))
        assert len(sys_spec.diffusion) == 2
        times = np.linspace(0.0, 50.0, 10_001)
        d_min = np.array([eval_profile(p, times) for p in sys_spec.diffusion]).min(axis=0)
        gamma = gamma_of_t(sys_spec.kinetics, times)
        expected = poincare_constant(sys_spec.grid) * d_min + gamma
        sigma = rdcert.cli._system_sigma(sys_spec)
        assert sigma(times).tobytes() == expected.tobytes()
        assert [sigma(float(t)) for t in times[::1000]] == \
            [float(v) for v in expected[::1000]]


class TestOneConfigReading:
    """run-theorem and analyze-dispersion read the built system, and every
    scenario gets the same [certificate] keys and requires those it needs."""

    def test_missing_certificate_key_is_not_applicable(self, tmp_path):
        text = short_demo("theorem32", "0.5")
        assert re.search(r"(?m)^m = ", text)
        out = tmp_path / "out"
        assert main(["run-theorem", "3.2", "--config",
                     write_cfg(tmp_path, re.sub(r"(?m)^m = .*$", "", text)),
                     "--out", str(out)]) == 2
        report = read_report(out)
        assert report["status"] == "not_applicable"
        assert report["reason"] == "missing scenario inputs: m"

    def test_modulated_scenario_under_neumann_ends(self, tmp_path):
        text = short_demo("theorem34_L2", "0.5").replace("bc = dirichlet", "bc = neumann")
        out = tmp_path / "out"
        assert main(["run-theorem", "3.4", "--config",
                     write_cfg(tmp_path, text[:text.index("[certificate]")]),
                     "--out", str(out)]) == 2
        report = read_report(out)
        assert report["status"] == "not_applicable"
        assert "needs Dirichlet ends" in report["reason"]

    @pytest.mark.parametrize("command, name, one, two", [
        (["run-theorem", "3.4"], "theorem34_L2", "v0 = 5.0", "v0 = 5.0, 5.0"),
        (["analyze-dispersion"], "dispersion", "v0 = 0.5", "v0 = 0.5, 0.5"),
    ], ids=["3.4", "dispersion"])
    def test_one_diffusion_value_for_two_components(self, tmp_path, command, name, one, two):
        # one [diffusion] v0 sets d1 = d2, as simulate reads it
        text = short_demo(name, "0.5")
        outputs = []
        for i, v0 in enumerate((one, two)):
            out = tmp_path / f"out{i}"
            code = main([*command, "--config",
                         write_cfg(tmp_path, re.sub(r"(?m)^v0 = .*,.*$", v0, text)),
                         "--out", str(out)])
            assert code in (0, 2, 3)
            outputs.append((code, {path.name: path.read_bytes() for path in out.iterdir()
                                   if path.name != "run_meta.json"}))
        assert outputs[0] == outputs[1]
        if name == "theorem34_L2":
            report = read_report(tmp_path / "out0")
            assert report["status"] == "completed"
            assert report["hypothesis_details"]["d0"] == 0.5  # 5.0 / phi0

    @pytest.mark.parametrize("command, name, v0, message", [
        # one v0 = 1e308 for both components: d_i = v0 / phi0 overflows
        (["run-theorem", "3.4"], "theorem34_L4", "v0 = 1e308",
         "[diffusion].v0 / [modulation].v0 is past the double range"),
        # d1 d2 is subnormal at any common scale of the two diffusions
        (["analyze-dispersion"], "dispersion", "v0 = 1.0, 1e-310",
         "d1 / d2 is past the double range"),
    ], ids=["3.4", "dispersion"])
    def test_diffusions_past_the_double_range(self, tmp_path, capsys, command, name, v0,
                                              message):
        text = re.sub(r"(?m)^v0 = .*,.*$", v0, short_demo(name, "0.5"))
        assert main([*command, "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"


def _fuzz_bases():
    """(label, command, config text) of the commands whose configs are
    mutated: run-theorem and check-certificate on each theorem demo config,
    convergence-test on its demo config, all with short runs."""
    bases = []
    for name, certificate in CERTIFICATE_KEYS.items():
        text = short_demo(name, "0.1")
        bases.append((name, ["run-theorem", f"{name[7]}.{name[8]}"], text))
        bases.append((f"{name}-certificate", ["check-certificate"], text + certificate))
    bases.append(("convergence", ["convergence-test"], short_demo("convergence", "0.05")))
    return {label: (command, text) for label, command, text in bases}


FUZZ_BASES = _fuzz_bases()
# 1e308 is a valid but endless run length; the other values are invalid there
RUN_LENGTH_KEYS = {"T", "N", "grid_points", "record_every", "time_n"}
FUZZ_VALUES = ("0", "-1", "1e308", "nan", "inf", "", "unknown-key")


def _keys(text: str):
    """(section, key) of every assignment in a config text."""
    section, keys = None, []
    for line in text.splitlines():
        head = re.match(r"\[(\w+)\]", line)
        if head:
            section = head.group(1)
        elif re.match(r"\w+ = ", line):
            keys.append((section, line.split(" = ")[0]))
    return keys


def _mutated(text: str, section: str, key: str, value: str) -> str:
    """text with [section].key set to value, or renamed to an unknown key."""
    lines, current = text.splitlines(), None
    for i, line in enumerate(lines):
        head = re.match(r"\[(\w+)\]", line)
        if head:
            current = head.group(1)
        elif current == section and line.startswith(f"{key} = "):
            lines[i] = (line.replace(key, f"{key}_unknown", 1) if value == "unknown-key"
                        else f"{key} = {value}")
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no [{section}].{key}")


FUZZ_MUTATIONS = [(label, section, key, value)
                  for label, (_command, text) in FUZZ_BASES.items()
                  for section, key in _keys(text) for value in FUZZ_VALUES
                  if not (key in RUN_LENGTH_KEYS and value == "1e308")]

# run-theorem with a configured alpha factor, mutated in the pinned escapes only
FUZZ_BASES["theorem31-alpha"] = (["run-theorem", "3.1"], short_demo("theorem31", "0.1")
                                 + "\n[certificate]\nalpha_factor = 0.15\n")

# analyze-dispersion: every one-key mutation of its demo config, in full
FUZZ_BASES["dispersion"] = (["analyze-dispersion"],
                            (DEMO_CONFIGS / "dispersion.cfg").read_text())
DISPERSION_MUTATIONS = [("dispersion", section, key, value)
                        for section, key in _keys(FUZZ_BASES["dispersion"][1])
                        for value in FUZZ_VALUES]

# simulate and estimate-constants: every one-key mutation of a short theorem31 run
FUZZ_BASES.update({command: ([command], short_demo("theorem31", "0.1"))
                   for command in ("simulate", "estimate-constants")})
INTEGRATION_MUTATIONS = [(label, section, key, value)
                         for label in ("simulate", "estimate-constants")
                         for section, key in _keys(FUZZ_BASES[label][1])
                         for value in FUZZ_VALUES
                         if not (key in RUN_LENGTH_KEYS and value == "1e308")]


def _run_mutation(label: str, section: str, key: str, value: str) -> int:
    """Run one mutated config through main in process; assert an exit code
    0-3 with a report.json, or exit 1 with one config error line, and the
    code in run_meta.json once --out exists.  A warning or an exception out
    of main fails."""
    command, text = FUZZ_BASES[label]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(_mutated(text, section, key, value))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command, "--config", str(cfg), "--out", str(out)])
        message = err.getvalue()
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert message.startswith("config error:") and message.count("\n") == 1, message
        else:
            assert (out / "report.json").exists()
        if out.exists():  # a config that does not parse stops before --out is made
            assert json.loads((out / "run_meta.json").read_text())["exit_code"] == code
    return code


class TestExitCodeFuzzing:
    """One-key mutations of the demo configs end in a documented exit code
    and a report or a one-line message, never a traceback or a warning."""

    # escapes found by the full sweep of FUZZ_MUTATIONS and fixed at their source
    PINNED = [
        ("convergence", "kinetics", "matrix", "1e308", 3),         # blow-up was a traceback
        ("convergence", "diffusion", "v0", "1e308", 3),
        ("theorem33-certificate", "kinetics", "matrix", "1e308", 2),  # lambda overflowed
        ("theorem32-certificate", "diffusion", "v0", "1e308", 0),  # sigma past the range
        ("theorem34_L2-certificate", "kinetics", "c0_v0", "1e308", 2),
        ("theorem31", "diffusion", "v0", "1e308", 1),              # exp of mu
        ("theorem31-certificate", "certificate", "nu", "1e308", 1),
        ("theorem34_L2", "certificate", "m", "1e308", 1),          # power of mu
        ("theorem34_L4", "certificate", "nu", "1e308", 2),         # mu' of the bounded weight
        ("theorem33", "certificate", "nu", "1e308", 2),            # closed-form growth bound
        ("theorem32", "domain", "L", "1e308", 1),                  # the initial mode
        ("dispersion", "diffusion", "v0", "1e308, 1e308", 1),      # det M(k) quadratic
        ("dispersion", "diffusion", "v0", "1.0, 1e-310", 1),       # d1 d2 subnormal
        ("theorem34_L4", "diffusion", "v0", "1e308", 1),           # v0 / phi0 overflows
        ("theorem31-certificate", "certificate", "alpha_factor", "-1", 1),  # alpha < 0
        ("theorem31-alpha", "certificate", "alpha_factor", "-1", 1),
        ("theorem31-certificate", "kinetics", "c0_v0", "-1", 1),  # c0 < 0, so alpha < 0
    ]

    @pytest.mark.parametrize("label, section, key, value, code", PINNED,
                             ids=[f"{p[0]}-{p[2]}" for p in PINNED])
    def test_pinned_escape(self, label, section, key, value, code):
        assert _run_mutation(label, section, key, value) == code

    @pytest.mark.parametrize("mutation", DISPERSION_MUTATIONS,
                             ids=[f"{m[2]}={m[3]}" for m in DISPERSION_MUTATIONS])
    def test_dispersion_mutation(self, mutation):
        _run_mutation(*mutation)

    @pytest.mark.parametrize("mutation", INTEGRATION_MUTATIONS,
                             ids=[f"{m[0]}-{m[2]}={m[3]}" for m in INTEGRATION_MUTATIONS])
    def test_simulate_and_estimate_mutation(self, mutation):
        _run_mutation(*mutation)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(FUZZ_MUTATIONS))
    def test_one_key_mutation(self, mutation):
        _run_mutation(*mutation)
