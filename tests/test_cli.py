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
from boxaffine.boxmodes import BoxGeometry
from boxaffine.potentials import AqBox, HalfHarmonic, boundary_asymptotic_ratio, evaluate_potential
from boxaffine.ritz import NoConvergence
from boxaffine.shooting import (GRID_SIZE, BracketFailure, boundary_exponent_probe,
                                eigenvalue_search, numerov_integrate)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseConfig:
    def test_happy_path(self):
        cfg = cli.parse_config(["spectrum", "--model", "aq-box", "--b", "1", "--hbar", "1",
                                "--method", "both", "--levels", "6"])
        assert cfg.model_name == "aq-box" and cfg.method == "both" and cfg.levels == 6
        assert cfg.basis_size == 32 and cfg.grid_size == 4001 and cfg.tol == 1e-8

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
        ("potential", {"x-min": "a"}),
        # a value converts as its command-line text would: 2.9 and true are no ints
        ("spectrum", {"levels": 2.9}), ("spectrum", {"levels": True}),
        ("potential", {"points": 4.7})],
        ids=["levels", "b", "x-min", "levels-float", "levels-bool", "points-float"])
    def test_config_bad_value_names_the_key(self, capsys, tmp_path, command, values):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values))
        code, _, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2
        assert repr(next(iter(values))) in err

    def test_config_key_the_command_does_not_read(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "aq-box", "grid-size": 5000}))
        code, out, err = run_cli(capsys, "convergence", "--config", str(path))
        assert code == 2 and out == ""
        assert "grid-size" in err

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--W", "1"),
        ("potential", "--levels", "3"),
        ("check-derivatives", "--model", "aq-box"),
        ("convergence", "--model", "aq-box", "--sizes", "8,16", "--levels", "2",
         "--grid-size", "5000"),
        ("validate", "--format", "csv"),
    ], ids=lambda argv: argv[0])
    def test_unread_flag_is_usage_error(self, capsys, argv):
        # each command is offered only the flags it reads; one it would
        # ignore exits 2 and is named
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert argv[-2] in err

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

    @pytest.mark.parametrize("flag, value, accepted", [
        ("--grid-size", "1000", True), ("--grid-size", "999", False),
        ("--grid-size", "1000001", False),
        ("--tol", "1e-10", True), ("--tol", "9.9e-11", False),
        ("--tol", "1e-2", True), ("--tol", "0.011", False), ("--tol", "nan", False),
        ("--tol", "inf", False)])
    def test_shooting_limits_match_the_api(self, flag, value, accepted):
        # the CLI reads its limits from shooting, so the two accept and reject alike
        try:
            cli.parse_config(["spectrum", "--model", "aq-box", "--method", "shooting", flag, value])
            cli_accepts = True
        except cli.UsageError:
            cli_accepts = False
        try:
            if flag == "--grid-size":
                eigenvalue_search(AqBox(), 0, grid_size=int(value))
            else:
                eigenvalue_search(AqBox(), 0, tol=float(value), grid_size=1000)
            api_accepts = True
        except ValueError:
            api_accepts = False
        assert cli_accepts == api_accepts == accepted

    @pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("argv, key", [
        (("spectrum", "--model", "aq-box", "--method", "shooting"), "grid-size"),
        (("potential", "--model", "aq-box"), "points"),
        (("check-derivatives", "--target", "cq-eigenfunction"), "n")],
        ids=["grid-size", "points", "n"])
    def test_size_beyond_its_bound_is_usage_error(self, capsys, tmp_path, argv, key, by_config):
        # 10^13 points would be ~73 TiB, which numpy refuses without
        # allocating, so the test costs no memory even without the bound
        if by_config:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({key: 10**13}))
            argv += ("--config", str(path))
        else:
            argv += (f"--{key}", str(10**13))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: --{key} must be in [")
        assert lines[0].endswith(", 1000000]")

    @pytest.mark.parametrize("method, expected", [
        ("both", 2), ("rayleigh-ritz", 2), ("shooting", 0)])
    def test_levels_beyond_basis_size(self, capsys, method, expected):
        # Ritz has only --basis-size levels; shooting reads no --basis-size
        argv = ["spectrum", "--model", "aq-box", "--levels", "6", "--method", method]
        if method != "shooting":
            argv += ["--basis-size", "4"]
        code, _, err = run_cli(capsys, *argv)
        assert code == expected
        if expected == 2:
            assert "--basis-size" in err

    @pytest.mark.parametrize("argv, config, flag", [
        (("spectrum", "--model", "half-ho", "--b", "5"), None, "--b"),
        (("spectrum", "--model", "half-ho"), {"b": 5}, "--b"),
        (("spectrum", "--model", "aq-box", "--method", "rayleigh-ritz", "--grid-size", "5000"),
         None, "--grid-size"),
        (("spectrum", "--model", "cq-box", "--method", "rayleigh-ritz"), {"tol": 1e-9}, "--tol"),
        (("spectrum", "--model", "aq-box", "--method", "shooting", "--basis-size", "16"), None,
         "--basis-size"),
        (("potential", "--model", "cq-box", "--W", "3"), None, "--W"),
        (("potential", "--model", "half-ho", "--b", "9"), None, "--b"),
        (("check-derivatives", "--target", "toy", "--n", "2"), None, "--n"),
        (("check-derivatives", "--target", "toy"), {"b": 2}, "--b"),
        (("check-derivatives", "--target", "cq-eigenfunction", "--hbar", "2"), None, "--hbar"),
    ], ids=["half-ho-b", "half-ho-b-config", "ritz-grid-size", "ritz-tol-config",
            "shooting-basis-size", "cq-box-W", "half-ho-potential-b", "toy-n", "toy-b-config",
            "check-derivatives-hbar"])
    def test_flag_the_run_ignores_is_usage_error(self, capsys, tmp_path, argv, config, flag):
        # a value the resolved run would ignore is named, not echoed as if used
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ("--config", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert flag in err

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

    def test_determinism_of_hash_region(self, capsys, tmp_path, checked_region):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["spectrum", "--model", "cq-box", "--levels", "2", "--method", "both"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        region1 = checked_region(out1.read_text())
        region2 = checked_region(out2.read_text())
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
            assert len(lines) == 4002
            vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
            assert np.max(np.abs(vals[:, 1])) == pytest.approx(1.0)

    def test_both_takes_no_final_shot(self, capsys, monkeypatch):
        # Ritz fills the levels of `both`; a final shot there would be discarded
        calls = []
        monkeypatch.setattr(cli.shooting, "numerov_integrate", lambda *a: calls.append(a))
        monkeypatch.setattr(cli.shooting, "boundary_exponent_probe", lambda *a: calls.append(a))
        code, out, _ = run_cli(capsys, "spectrum", "--model", "aq-box", "--levels", "3",
                               "--method", "both")
        assert code == 0
        assert calls == []
        assert json.loads(out)["agreement"]["pass"] is True

    def test_both_dump_psi_writes_the_final_shots(self, capsys, tmp_path):
        # the files hold the final shot at each level's shooting energy
        dest = tmp_path / "waves"
        code = cli.main(["spectrum", "--model", "aq-box", "--levels", "2", "--method", "both",
                         "--out", str(tmp_path / "r.json"), "--dump-psi", str(dest)])
        capsys.readouterr()
        assert code == 0
        assert sorted(os.listdir(dest)) == ["psi_0.csv", "psi_1.csv"]
        for lv in json.loads((tmp_path / "r.json").read_text())["levels"]:
            shot = numerov_integrate(AqBox(), lv["energy_shooting"], GRID_SIZE)
            rows = "".join(f"{float(x)!r},{float(p)!r}\n" for x, p in zip(shot.xs, shot.psi))
            assert (dest / f"psi_{lv['index']}.csv").read_text() == "x,psi\n" + rows

    def test_shooting_reports_the_final_shot(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "aq-box", "--levels", "3",
                               "--method", "shooting")
        assert code == 0
        for k, lv in enumerate(json.loads(out)["levels"]):
            shot = numerov_integrate(AqBox(), lv["energy"], GRID_SIZE)
            assert (lv["parity"], lv["node_count"]) == (shot.parity, shot.node_count)
            assert (shot.parity, shot.node_count) == (("even", "odd")[k % 2], k)
            assert lv["boundary_exponent"] == boundary_exponent_probe(AqBox(), lv["energy"])
            assert lv["boundary_exponent"] == pytest.approx(1.5, abs=0.01)

    def test_dump_psi_without_shooting_is_usage_error(self, capsys, tmp_path):
        # Ritz has no shooting wavefunctions to write; the flag must not be ignored
        dest = tmp_path / "waves"
        code, out, err = run_cli(capsys, "spectrum", "--model", "aq-box", "--method",
                                 "rayleigh-ritz", "--levels", "2", "--dump-psi", str(dest))
        assert code == 2 and "--dump-psi" in err
        assert out == "" and not dest.exists()

    @pytest.mark.parametrize("flag", ["--out", "--dump-psi"])
    def test_write_failure_is_usage_error(self, tmp_path, flag):
        # --out into a missing directory, --dump-psi onto a file: one error
        # line and exit 2, not an OSError traceback
        taken = tmp_path / "taken"
        taken.write_text("")
        dest = {"--out": tmp_path / "missing" / "r.json", "--dump-psi": taken}[flag]
        run = run_cli_process("spectrum", "--model", "cq-box", "--levels", "2", "--method",
                              "shooting", flag, str(dest))
        assert run.returncode == 2 and run.stdout == ""
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {flag}: cannot ")

    def test_unwritable_out_fails_before_solving(self, capsys, monkeypatch, tmp_path):
        # a solve would raise: the missing directory must be caught first
        def unreached(*args, **kwargs):
            raise AssertionError("solved before checking --out")

        monkeypatch.setattr(cli.shooting, "eigenvalue_search", unreached)
        code, out, err = run_cli(capsys, "spectrum", "--model", "aq-box", "--levels", "12",
                                 "--method", "both", "--out", str(tmp_path / "missing" / "r.json"))
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --out: cannot write ")

    def test_out_checks_the_file_not_its_folder(self, capsys, monkeypatch, tmp_path):
        # an existing writable file is written even where its folder is not
        # writable (/dev/null for a user other than root); a folder is refused
        report = tmp_path / "r.json"
        report.write_text("old")
        access = os.access
        monkeypatch.setattr(cli.os, "access", lambda path, mode: str(path) != str(tmp_path)
                            and access(path, mode))
        for dest in (report, os.devnull):
            code, _, err = run_cli(capsys, "spectrum", "--model", "cq-box", "--levels", "2",
                                   "--method", "rayleigh-ritz", "--out", str(dest))
            assert code == 0 and err == ""
        assert json.loads(report.read_text())["levels"]
        code, _, err = run_cli(capsys, "spectrum", "--model", "cq-box", "--levels", "2",
                               "--method", "rayleigh-ritz", "--out", str(tmp_path))
        assert code == 2 and err.startswith("error: --out: cannot write ")

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "cq-box", "--levels", "2",
                               "--method", "rayleigh-ritz", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("index,")
        assert len(lines) == 3

    def test_disagreement_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.shooting, "eigenvalue_search",
                            lambda model, k, tol, grid_size: 999.0 + k)
        code, out, _ = run_cli(capsys, "spectrum", "--model", "aq-box", "--levels", "2",
                               "--method", "both")
        assert code == 3
        report = json.loads(out)
        assert report["agreement"]["pass"] is False

    def test_solver_failure_exit_code(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NoConvergence("synthetic failure")
        monkeypatch.setattr(cli.ritz, "compute_spectrum", boom)
        code, _, err = run_cli(capsys, "spectrum", "--model", "cq-box", "--method", "rayleigh-ritz")
        assert code == 4
        assert "NoConvergence" in err

    def test_large_box_scales_like_unit_box(self, capsys):
        # the pencil holds only hbar^2/b and b, so no power of b overflows
        energies = {}
        for b in ("1", "1e45"):
            code, out, _ = run_cli(capsys, "spectrum", "--model", "aq-box", "--b", b,
                                   "--method", "rayleigh-ritz", "--levels", "3")
            assert code == 0
            energies[b] = np.array([lv["energy"] for lv in json.loads(out)["levels"]])
        scaled = energies["1e45"] * 1e90
        assert np.max(np.abs(scaled - energies["1"]) / energies["1"]) <= 1e-13

    def test_bracket_failure_exit_code(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise BracketFailure("synthetic")
        monkeypatch.setattr(cli.shooting, "eigenvalue_search", boom)
        code, _, err = run_cli(capsys, "spectrum", "--model", "half-ho")
        assert code == 4
        assert "BracketFailure" in err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize("argv", [
    ("spectrum", "--model", "aq-box", "--levels", "2"),
    ("spectrum", "--model", "half-ho", "--levels", "2"),
    ("check-derivatives", "--target", "toy"),
    ("check-derivatives", "--target", "cq-eigenfunction"),
    ("convergence", "--model", "aq-box", "--sizes", "8,16", "--levels", "2"),
    ("convergence", "--model", "aq-box", "--sizes", "8", "--levels", "2"),
    ("convergence", "--model", "cq-box", "--sizes", "64", "--levels", "12"),
], ids=" ".join)
def test_every_report_is_strict_json(capsys, argv):
    # JSON has no NaN or Infinity: a run either writes a report that parses
    # without them or is refused
    code, out, _ = run_cli(capsys, *argv)
    assert code in (0, 2)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)


def _assert_cells_hold(text, rows):
    """Each CSV line holds its row: a float cell parses back to exactly the
    float, an int cell reads as that int, and None is an empty cell."""
    lines = text.split("\n")
    assert lines.pop() == "" and len(lines) == len(rows)
    for line, row in zip(lines, rows):
        cells = line.split(",")
        assert len(cells) == len(row)
        for cell, value in zip(cells, row):
            if value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert float(cell) == value
            else:
                assert cell == str(value)


def test_every_csv_cell_holds_its_value(capsys, tmp_path):
    # the same run's JSON report is the oracle for the report CSVs
    def csv_and_report(*argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        code, csv, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        return csv, json.loads(out)

    for argv in (("--model", "aq-box", "--method", "both", "--levels", "3"),
                 ("--model", "half-ho", "--levels", "2")):
        csv, report = csv_and_report("spectrum", *argv)
        cols = csv.split("\n", 1)[0].split(",")
        assert cols[0] == "index" and cols[1:] == sorted(set(report["levels"][0]) - {"index"})
        _assert_cells_hold(csv, [cols] + [[lv.get(c) for c in cols] for lv in report["levels"]])
    assert report["levels"][0]["parity"] is None  # half-ho: empty parity cells

    for target in ("toy", "cq-eigenfunction"):
        csv, report = csv_and_report("check-derivatives", "--target", target)
        _assert_cells_hold(csv, [["h", "norm"]] + [[r["h"], r["norm"]] for r in report["h_scaling"]])

    csv, report = csv_and_report("convergence", "--model", "aq-box", "--sizes", "8,16",
                                 "--levels", "2")
    conv = report["convergence"]
    _assert_cells_hold(csv, [["N", "E0", "E1"]] + [[n, *row] for n, row in
                                                   zip(conv["sizes"], conv["energies"])])

    code, csv, _ = run_cli(capsys, "potential", "--model", "aq-box", "--points", "7")
    assert code == 0
    xs = np.linspace(-0.99, 0.99, 7)
    _assert_cells_hold(csv, [["x", "V", "boundary_asymptotic_ratio"]] + [
        [float(x), float(v), float(r)] for x, v, r in
        zip(xs, evaluate_potential(AqBox(), xs), boundary_asymptotic_ratio(xs, BoxGeometry()))])

    dest = tmp_path / "waves"
    code, out, _ = run_cli(capsys, "spectrum", "--model", "half-ho", "--levels", "1",
                           "--dump-psi", str(dest))
    assert code == 0
    shot = numerov_integrate(HalfHarmonic(), json.loads(out)["levels"][0]["energy"], GRID_SIZE)
    _assert_cells_hold((dest / "psi_0.csv").read_text(),
                       [["x", "psi"]] + [[float(x), float(p)] for x, p in zip(shot.xs, shot.psi)])


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
    # the search carries its own Newton root finder; importing scipy.optimize
    # would add ~0.25 s and ~20 MB to every process, and scipy.special 0.05-0.3 s
    # (Ritz takes its Gamma values from math)
    env = dict(os.environ, PYTHONPATH=str(Path(boxaffine.__file__).parents[1]))
    code = ("import contextlib, io, sys, boxaffine.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['spectrum', '--model', 'aq-box', '--method', 'both', '--levels', '2'])\n"
            "print(rc, 'scipy.optimize' in sys.modules, 'scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "0 False False"


def test_only_a_sweep_loads_scipy_and_only_its_lapack_extension():
    # scipy supplies shooting's two LAPACK calls and nothing else, loaded on
    # the first sweep, so a run that sweeps nothing loads no scipy module:
    # not the commands below, nor criterion 9's dense eigensolve or a finite
    # l2_norm_squared.  Nor do the commands load numpy.polynomial, which the
    # Gauss-Legendre rule (criterion 9, l2_norm_squared) and the half-line
    # eigenfunction import where they run.  --method both sweeps, and is the
    # control: it loads scipy's linalg/_flapack extension (~6 ms, ~3 MB) but
    # not the scipy.linalg package (~0.17 s, ~27 MB) or its scipy._lib._util
    env = dict(os.environ, PYTHONPATH=str(Path(boxaffine.__file__).parents[1]))
    code = ("import contextlib, io, sys, boxaffine.cli as cli\n"
            "from boxaffine import BoxGeometry, acceptance, cq_eigenfunction_extended\n"
            "from boxaffine import l2_norm_squared, weak_derivative\n"
            "def loaded():\n"
            "    return [any(name.startswith('scipy') for name in sys.modules),\n"
            "            'numpy.polynomial' in sys.modules]\n"
            "def run(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rc = cli.main(argv)\n"
            "    print(argv[0], rc, *loaded())\n"
            "print('import', *loaded())\n"
            "run(['potential', '--model', 'aq-box'])\n"
            "run(['check-derivatives', '--target', 'cq-eigenfunction', '--n', '2'])\n"
            "run(['convergence', '--model', 'aq-box'])\n"
            "run(['spectrum', '--model', 'aq-box', '--method', 'rayleigh-ritz'])\n"
            "print('criterion-9', acceptance.criterion_9_infrastructure().passed, *loaded())\n"
            "w = weak_derivative(cq_eigenfunction_extended(3, BoxGeometry(1.0)))\n"
            "print('l2_norm_squared', round(l2_norm_squared(w), 6), *loaded())\n"
            "run(['spectrum', '--model', 'aq-box', '--method', 'both', '--levels', '2'])\n"
            "print(*(name in sys.modules\n"
            "        for name in ('scipy.linalg', 'scipy._lib._util', 'scipy.linalg._flapack')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.split("\n")[:-1] == ["import False False", "potential 0 False False",
                                    "check-derivatives 0 False False",
                                    "convergence 0 False False", "spectrum 0 False False",
                                    "criterion-9 True False True",
                                    "l2_norm_squared 22.20661 False True",
                                    "spectrum 0 True True", "False False True"]


def test_python_m_boxaffine_runs_the_cli():
    # python -m boxaffine is the boxaffine command without an install
    env = dict(os.environ, PYTHONPATH=str(Path(boxaffine.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "boxaffine", "validate"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0
    assert run.stdout.count("PASS") == 9


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

    @pytest.mark.parametrize("argv, flag", [
        (("--model", "anti-box", "--W", "nan"), "--W"),
        (("--model", "anti-box", "--W", "inf"), "--W"),
        (("--x-min=-inf",), "--x-min"),
        (("--x-max", "inf"), "--x-max"),
        (("--model", "half-ho", "--x-max", "inf"), "--x-max"),
        # a finite grid on which a column overflows: V near 0 and far out, x
        # itself when --x-max - --x-min does
        (("--model", "half-ho", "--x-min", "1e-300", "--x-max", "1", "--points", "3"), "V;"),
        (("--model", "half-ho", "--x-min", "1e200", "--x-max", "1e201", "--points", "3"), "V;"),
        (("--model", "anti-box", "--x-min=-1e308", "--x-max", "1e308", "--points", "3"), "x;")],
        ids=["W-nan", "W-inf", "x-min", "x-max", "half-ho-x-max", "V-near-0", "V-far-out", "x-range"])
    def test_non_finite_value_is_usage_error(self, capsys, argv, flag):
        # once a traceback (--W), or rows of nan and inf with exit 0 and, for
        # an overflowing column, a numpy RuntimeWarning, which pytest makes an
        # error: one error line, naming the flag or the column
        code, out, err = run_cli(capsys, "potential", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err

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

    def test_one_size_is_usage_error(self, capsys, tmp_path):
        # a study of the change between basis sizes needs two of them; one
        # size has no final change to report
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "aq-box", "sizes": 8, "levels": 2}))
        for argv in (("--model", "aq-box", "--sizes", "8", "--levels", "2"),
                     ("--model", "cq-box", "--sizes", "64,", "--levels", "12"),
                     ("--config", str(path))):
            code, out, err = run_cli(capsys, "convergence", *argv)
            assert code == 2 and out == ""
            assert err == "error: --sizes must list at least two basis sizes\n"

    def test_half_ho_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "convergence", "--model", "half-ho")
        assert code == 2
