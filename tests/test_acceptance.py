"""Acceptance gate: one test per criterion, at the stated tolerances.

Criteria 1-9 are the callables in boxaffine.acceptance.ALL_CRITERIA (shared
with the CLI `validate` subcommand), each tested under its function's name;
criterion 10 exercises the CLI contract itself.
Each test prints its PASS/FAIL line, so `pytest -s tests/test_acceptance.py`
reads as the acceptance report.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxaffine
from boxaffine import acceptance, cli


@pytest.fixture(scope="module")
def results():
    """Each criterion's result, by the name of its function."""
    return {fn.__name__: res for fn, res in zip(acceptance.ALL_CRITERIA, acceptance.run_all())}


def _criterion_test(name):
    def test(results):
        res = results[name]
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
        assert res.passed, res.detail
    test.__name__ = f"test_{name}"
    return test


# one test per criterion, named after its function: test_criterion_1_cq_spectrum, ...
for _fn in acceptance.ALL_CRITERIA:
    globals()[f"test_{_fn.__name__}"] = _criterion_test(_fn.__name__)


def test_runtime_bounds(results):
    # the bounds are fixed targets: criteria 1 and 3 under a second, 5 under
    # five and 6 under thirty; the others show no runtime
    bounds = {1: "(<1s)", 3: "(<1s)", 5: "(<5s)", 6: "(<30s)"}
    for i, res in enumerate(results.values(), 1):
        if i in bounds:
            assert res.detail.endswith(bounds[i])
        else:
            assert "runtime" not in res.detail


def test_criterion_fails_at_its_bound():
    res = acceptance._criterion("bounded", runtime_bound=0.0)(lambda: (True, "ok"))()
    assert not res.passed
    assert res.detail.startswith("ok, runtime ") and res.detail.endswith("(<0s)")


def test_first_criterion_starts_with_lapack_loaded():
    # run_all loads LAPACK before the first criterion's timer starts, so in a
    # fresh process criterion 1 times its solves, not the load of scipy's
    # LAPACK extension
    env = dict(os.environ, PYTHONPATH=str(Path(boxaffine.__file__).parents[1]))
    code = ("import sys, boxaffine.acceptance as acceptance\n"
            "seen = ['scipy.linalg._flapack' in sys.modules]\n"
            "def first():\n"
            "    seen.append('scipy.linalg._flapack' in sys.modules)\n"
            "    return acceptance.CriterionResult('first', True, '', 0.0)\n"
            "acceptance.ALL_CRITERIA = (first,)\n"
            "list(acceptance.run_all())\n"
            "print(*seen)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False True"


def test_unbounded_criterion_shows_no_runtime():
    res = acceptance._criterion("unbounded")(lambda: (True, "ok"))()
    assert res.passed and res.detail == "ok" and res.runtime_s >= 0.0


def test_criterion_10_cli_contract(capsys, tmp_path, checked_region):
    # validate runs criteria 1-9 end to end and exits 0
    code = cli.main(["validate"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.strip().split("\n") if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert all(ln.startswith("PASS") for ln in lines)

    # two identical spectrum runs produce byte-identical hash-checked regions
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["spectrum", "--model", "aq-box", "--levels", "4", "--method", "both"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    r1 = checked_region(out1.read_text())
    r2 = checked_region(out2.read_text())
    assert r1.encode() == r2.encode()
    # and the timing-stripped region still carries the full physics payload
    assert json.loads(r1)["levels"][0]["relative_delta"] <= 1e-6
    print("PASS  10 CLI contract: validate exit 0; spectrum reports byte-identical")
