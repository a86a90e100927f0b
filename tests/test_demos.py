"""The package's callers outside it: the demos and the benchmark's tracer.

Both reach into the public API by name, so a deleted or renamed function
shows up here rather than only when they are next run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxaffine
from boxaffine import cli, shooting  # cli too: the tracer wraps names across every module

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(boxaffine.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tracer_resolves_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    original = shooting.eigenvalue_search
    tracer = Tracer()
    try:
        tracer.install()  # raises LookupError if a traced name is gone
        assert shooting.eigenvalue_search is not original
    finally:
        tracer.uninstall()
    assert shooting.eigenvalue_search is original


def test_tracer_sees_the_spectrum_runner_under_main(monkeypatch, capsys):
    # main must look its runners up when called; a table bound at import time
    # would keep the unwrapped run_spectrum, and its span would go missing
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        assert cli.main(["spectrum", "--model", "aq-box", "--levels", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = [span[0] for span in tracer.spans]
    runs = [span for span in tracer.spans if span[0] == "cli.run_spectrum"]
    assert len(runs) == 1 and names[runs[0][3]] == "cli.main"


@pytest.mark.parametrize("method, dump_psi, counts", [
    pytest.param("shooting", False, [4, 4, 4], id="shooting-4"),
    pytest.param("both", False, [4, 0, 0], id="both-0"),
    pytest.param("both", True, [4, 4, 0], id="both-dump-psi")])
def test_tracer_counts_each_level_once(monkeypatch, capsys, tmp_path, method, dump_psi, counts):
    # the benchmark counts levels by eigenvalue_search spans and final shots
    # by numerov_integrate and boundary_exponent_probe spans; `both` reads
    # only energies from shooting, and with --dump-psi the shots it writes
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    argv = ["spectrum", "--model", "aq-box", "--levels", "4", "--method", method]
    tracer = Tracer()
    try:
        tracer.install()
        assert cli.main(argv + (["--dump-psi", str(tmp_path)] if dump_psi else [])) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = [span[0] for span in tracer.spans]
    assert [names.count(f"shooting.{name}") for name in
            ("eigenvalue_search", "numerov_integrate", "boundary_exponent_probe")] == counts
