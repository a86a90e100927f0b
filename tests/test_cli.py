import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import boxaffine
from boxaffine import cli
from boxaffine.ritz import NotPositiveDefinite
from boxaffine.shooting import BracketFailure


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseConfig:
    def test_happy_path(self):
        cfg = cli.parse_config(["spectrum", "--model", "aq-box", "--b", "1", "--hbar", "1",
                                "--method", "both", "--levels", "6"])
        assert cfg.model_name == "aq-box" and cfg.method == "both" and cfg.levels == 6
        assert cfg.basis_size == 32 and cfg.grid_size == 20001 and cfg.tol == 1e-8

    def test_defaults(self):
        cfg = cli.parse_config(["spectrum"])
        assert cfg.b == 1.0 and cfg.hbar == 1.0 and cfg.levels == 6
        assert cfg.fmt == "json" and cfg.method is None

    def test_config_file_merge_and_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "aq-box", "levels": 2, "basis-size": 24}))
        cfg = cli.parse_config(["spectrum", "--config", str(path), "--levels", "3"])
        assert cfg.model_name == "aq-box"
        assert cfg.levels == 3  # flag wins
        assert cfg.basis_size == 24  # file fills the rest

    def test_config_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nonsense": 1}))
        with pytest.raises(cli.UsageError):
            cli.parse_config(["spectrum", "--config", str(path)])

    @pytest.mark.parametrize("command, values", [
        ("spectrum", {"levels": "x"}), ("spectrum", {"b": None}),
        ("potential", {"x-min": "a"})], ids=["levels", "b", "x-min"])
    def test_config_bad_value_names_the_key(self, capsys, tmp_path, command, values):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values))
        code, _, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2
        assert repr(next(iter(values))) in err

    def test_negative_b_names_the_flag(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--b", "-1")
        assert code == 2
        assert "--b" in err and "> 0" in err

    def test_unknown_model_lists_choices(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--model", "mystery-box")
        assert code == 2
        assert "cq-box" in err and "aq-box" in err

    def test_anti_box_spectrum_rejected(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--model", "anti-box")
        assert code == 2
        assert "potential" in err

    def test_half_ho_method_compatibility(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--model", "half-ho", "--method", "both")
        assert code == 2
        assert "shooting" in err

    @pytest.mark.parametrize("model,method,flag,value", [
        ("aq-box", "rayleigh-ritz", "--b", "1e200"), ("cq-box", "rayleigh-ritz", "--b", "1e200"),
        ("aq-box", "shooting", "--b", "1e200"), ("cq-box", "shooting", "--b", "1e200"),
        ("aq-box", "both", "--b", "1e-60"), ("cq-box", "both", "--hbar", "1e200"),
        ("aq-box", "both", "--hbar", "1e-60")])
    def test_scale_outside_range_is_usage_error(self, capsys, model, method, flag, value):
        code, _, err = run_cli(capsys, "spectrum", "--model", model, "--method", method,
                               flag, value, "--levels", "1")
        assert code == 2
        assert flag in err and "1e+50" in err

    def test_levels_cap(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--levels", "13")
        assert code == 2

    def test_tol_range(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--tol", "1e-12")
        assert code == 2

    @pytest.mark.parametrize("method, expected", [
        ("both", 2), ("rayleigh-ritz", 2), ("shooting", 0)])
    def test_levels_beyond_basis_size(self, capsys, method, expected):
        # Ritz has only --basis-size levels; shooting is not bound by it
        code, _, err = run_cli(capsys, "spectrum", "--model", "aq-box", "--basis-size", "4",
                               "--levels", "6", "--method", method)
        assert code == expected
        if expected == 2:
            assert "--basis-size" in err

    def test_mode_index_below_one(self, capsys):
        code, _, err = run_cli(capsys, "check-derivatives", "--target", "cq-eigenfunction",
                               "--n", "0")
        assert code == 2
        assert "--n" in err


class TestSpectrum:
    def test_flat_box_report(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "cq-box", "--levels", "3",
                               "--method", "rayleigh-ritz")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "boxaffine/1"
        assert report["config"]["method"] == "rayleigh-ritz"
        assert report["levels"][0]["index"] == 1  # closed-form indexing starts at 1
        assert report["levels"][0]["energy"] == pytest.approx(2.4674011, rel=1e-6)
        energies = [lv["energy"] for lv in report["levels"]]
        assert energies == sorted(energies)
        jsonschema.validate(report, cli.SPECTRUM_REPORT_SCHEMA)

    def test_aq_box_both_methods_agree(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "aq-box", "--levels", "3",
                               "--method", "both", "--grid-size", "20001")
        assert code == 0
        report = json.loads(out)
        assert report["agreement"]["pass"] is True
        assert report["agreement"]["max_relative_delta"] <= 1e-6
        for lv in report["levels"]:
            assert lv["relative_delta"] <= 1e-6
        jsonschema.validate(report, cli.SPECTRUM_REPORT_SCHEMA)

    def test_half_ho_levels(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "half-ho", "--levels", "3")
        assert code == 0
        report = json.loads(out)
        energies = [lv["energy"] for lv in report["levels"]]
        assert energies == pytest.approx([2.0, 4.0, 6.0], rel=1e-6)
        assert report["levels"][0]["parity"] is None
        assert [lv["node_count"] for lv in report["levels"]] == [0, 1, 2]
        jsonschema.validate(report, cli.SPECTRUM_REPORT_SCHEMA)

    def test_determinism_of_hash_region(self, capsys, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["spectrum", "--model", "cq-box", "--levels", "2", "--method", "both"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        region1 = cli.hash_checked_region(out1.read_text())
        region2 = cli.hash_checked_region(out2.read_text())
        assert region1.encode() == region2.encode()

    def test_dump_psi_files(self, capsys, tmp_path):
        dest = tmp_path / "waves"
        code = cli.main(["spectrum", "--model", "half-ho", "--levels", "2",
                         "--out", str(tmp_path / "r.json"), "--dump-psi", str(dest)])
        capsys.readouterr()
        assert code == 0
        for k in (0, 1):
            lines = (dest / f"psi_{k}.csv").read_text().strip().split("\n")
            assert lines[0] == "x,psi"
            assert len(lines) == 20002
            vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
            assert np.max(np.abs(vals[:, 1])) == pytest.approx(1.0)

    def test_dump_psi_without_shooting_is_usage_error(self, capsys, tmp_path):
        # Ritz has no shooting wavefunctions to write; the flag must not be ignored
        dest = tmp_path / "waves"
        code, out, err = run_cli(capsys, "spectrum", "--model", "aq-box", "--method",
                                 "rayleigh-ritz", "--levels", "2", "--dump-psi", str(dest))
        assert code == 2 and "--dump-psi" in err
        assert out == "" and not dest.exists()

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "cq-box", "--levels", "2",
                               "--method", "rayleigh-ritz", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("index,")
        assert len(lines) == 3

    def test_disagreement_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.shooting, "eigenvalue_search",
                            lambda model, k, tol, grid: 999.0 + k)
        code, out, _ = run_cli(capsys, "spectrum", "--model", "aq-box", "--levels", "2",
                               "--method", "both")
        assert code == 3
        report = json.loads(out)
        assert report["agreement"]["pass"] is False

    def test_solver_failure_exit_code(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NotPositiveDefinite("synthetic failure")
        monkeypatch.setattr(cli.ritz, "compute_spectrum", boom)
        code, _, err = run_cli(capsys, "spectrum", "--model", "cq-box", "--method", "rayleigh-ritz")
        assert code == 4
        assert "NotPositiveDefinite" in err

    def test_overlap_overflow_is_solver_failure(self, capsys):
        # the (b^2 - x^2)^{3/2} weight puts b^7 into the overlap matrix
        code, out, err = run_cli(capsys, "spectrum", "--model", "aq-box", "--b", "1e45",
                                 "--method", "rayleigh-ritz", "--levels", "1")
        assert code == 4
        assert "NotPositiveDefinite" in err and out == ""

    def test_bracket_failure_exit_code(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise BracketFailure("synthetic")
        monkeypatch.setattr(cli.shooting, "eigenvalue_search", boom)
        code, _, err = run_cli(capsys, "spectrum", "--model", "half-ho")
        assert code == 4
        assert "BracketFailure" in err


def run_cli_process(*argv, timeout=60):
    # a separate process with a timeout, so a search that never ends fails
    env = dict(os.environ, PYTHONPATH=str(Path(boxaffine.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "boxaffine.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestEnergyScales:
    """Shooting resolves every energy scale, since --tol is relative to it."""

    @pytest.mark.parametrize("argv, exact", [
        # once hung: the absolute-width bisection could not narrow below one ulp
        (("--model", "cq-box", "--hbar", "1e4", "--levels", "2"),
         [n * n * math.pi ** 2 / 4 * 1e8 for n in (1, 2)]),
        # once printed bracket midpoints and exited 0
        (("--model", "cq-box", "--b", "1000", "--levels", "4"),
         [n * n * math.pi ** 2 / 4 * 1e-6 for n in (1, 2, 3, 4)]),
        (("--model", "half-ho", "--hbar", "1e-4", "--levels", "4"),
         [2e-4 * (k + 1) for k in range(4)]),
    ])
    def test_shooting_against_closed_form(self, argv, exact):
        proc = run_cli_process("spectrum", *argv, "--method", "shooting")
        assert proc.returncode == 0, proc.stderr
        energies = [lvl["energy"] for lvl in json.loads(proc.stdout)["levels"]]
        assert len(energies) == len(exact)
        for e, ref in zip(energies, exact):
            assert abs(e - ref) / ref <= 1e-6

    def test_small_scale_methods_agree(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "aq-box", "--b", "1000",
                               "--hbar", "0.001", "--method", "both", "--levels", "2")
        assert code == 0
        assert json.loads(out)["agreement"]["max_relative_delta"] < 1e-8

    def test_coarse_grid_methods_agree(self, capsys):
        # the two-sided Wronskian root; the one-sided staircase midpoint was
        # 6.2e-5 off Ritz at level 11 on this grid
        code, out, _ = run_cli(capsys, "spectrum", "--model", "aq-box", "--grid-size", "1000",
                               "--levels", "12")
        assert code == 0
        assert json.loads(out)["agreement"]["pass"] is True


def test_spectrum_run_leaves_scipy_optimize_unloaded():
    # the search carries its own Brent root finder; importing scipy.optimize
    # would add ~0.25 s and ~20 MB to every process
    env = dict(os.environ, PYTHONPATH=str(Path(boxaffine.__file__).parents[1]))
    code = ("import contextlib, io, sys, boxaffine.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['spectrum', '--model', 'aq-box', '--method', 'both', '--levels', '2'])\n"
            "print(rc, 'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "0 False"


class TestPotential:
    def test_aq_box_default_grid(self, capsys):
        code, out, _ = run_cli(capsys, "potential", "--model", "aq-box", "--b", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,V,boundary_asymptotic_ratio"
        assert len(lines) == 200  # header + 199 samples
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
        center = min(rows, key=lambda r: abs(r[0]))
        assert center[1] == pytest.approx(1.0, rel=1e-12)
        assert center[2] == pytest.approx(4.0 / 3.0, rel=1e-12)
        # ratio approaches 1 toward the walls
        assert abs(rows[0][2] - 1.0) < 0.01 and abs(rows[-1][2] - 1.0) < 0.01

    def test_anti_box_row(self, capsys):
        code, out, _ = run_cli(capsys, "potential", "--model", "anti-box", "--W", "1",
                               "--x-min", "2", "--x-max", "3", "--points", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,V"
        assert [float(v) for v in lines[1].split(",")] == pytest.approx([2.0, 1.5])

    def test_grid_touching_wall_rejected(self, capsys):
        code, _, err = run_cli(capsys, "potential", "--model", "aq-box", "--x-max", "1.0")
        assert code == 2

    def test_half_ho_grid(self, capsys):
        code, out, _ = run_cli(capsys, "potential", "--model", "half-ho", "--points", "10")
        assert code == 0
        assert len(out.strip().split("\n")) == 11

    def test_json_format_is_usage_error(self, capsys):
        # `potential` writes CSV only; an explicit --format json must not be ignored
        code, out, err = run_cli(capsys, "potential", "--model", "aq-box", "--format", "json")
        assert code == 2 and "--format" in err and out == ""
        assert cli.parse_config(["potential"]).fmt == "csv"

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "pot.csv"
        code = cli.main(["potential", "--model", "cq-box", "--points", "5", "--out", str(dest)])
        capsys.readouterr()
        assert code == 0
        assert dest.read_text().startswith("x,V")


class TestCheckDerivatives:
    def test_toy(self, capsys):
        code, out, _ = run_cli(capsys, "check-derivatives", "--target", "toy")
        assert code == 0
        report = json.loads(out)
        assert report["delta_terms"] == [{"location": 0.0, "coefficient": 1.0}]
        assert report["l2_norm_squared"]["finite"] is False
        assert report["square_integrable"] is False
        assert report["fitted_slope"] == pytest.approx(-1.0, abs=0.1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_box_modes(self, capsys, n):
        code, out, _ = run_cli(capsys, "check-derivatives", "--target", "cq-eigenfunction",
                               "--n", str(n))
        assert code == 0
        report = json.loads(out)
        locs = sorted(d["location"] for d in report["delta_terms"])
        assert locs == [-1.0, 1.0]
        assert report["l2_norm_squared"]["finite"] is False
        assert -1.1 <= report["fitted_slope"] <= -0.9

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "check-derivatives", "--target", "toy",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "h,norm"
        assert len(lines) == 8


class TestConvergence:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "convergence", "--model", "aq-box",
                               "--sizes", "8,16,32", "--levels", "4")
        assert code == 0
        report = json.loads(out)
        energies = np.array(report["convergence"]["energies"])
        assert energies.shape == (3, 4)
        assert np.all(np.diff(energies, axis=0) <= 1e-12)

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "convergence", "--model", "cq-box",
                               "--sizes", "8,16", "--levels", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,E0,E1"
        assert len(lines) == 3

    def test_bad_sizes(self, capsys):
        code, _, err = run_cli(capsys, "convergence", "--model", "aq-box", "--sizes", "16,8")
        assert code == 2

    def test_half_ho_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "convergence", "--model", "half-ho")
        assert code == 2
