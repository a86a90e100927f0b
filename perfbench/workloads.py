"""The benchmark's workloads: seeded inputs, one timed pass, and its checks.

A workload is built from a seed by ``make_workload``; ``run_pass`` runs
every input once through the package's public functions, timing each, and
``check_pass`` turns the outputs into one outcome per operation (see
``checks``).  Only the calls into the package are timed.
"""

import contextlib
import functools
import io
import json
import random
import time
from dataclasses import dataclass
from typing import Tuple

from boxaffine import acceptance, cli, ritz
from boxaffine.boxmodes import BoxGeometry
from boxaffine.potentials import AqBox, CqBox

import checks

LEVELS = 12
TOL = 1e-8  # the CLI's default --tol, passed explicitly
SWEEP_SIZES = (12, 16, 24, 32, 48, 64)
SPECTRUM_SIZE = 64

# Energy levels that each acceptance criterion compares with a closed form,
# with the other solver or with the scaling law (acceptance.py): criterion 1
# checks 8 flat-box levels from both solvers, 5 checks 5 levels at 3 values
# of hbar, 6 checks 6 shooting levels against Ritz, 7 checks 4 levels at 3
# scalings.  The others check no energies.
VALIDATE_LEVELS = {1: 16, 5: 15, 6: 6, 7: 12}


@dataclass(frozen=True)
class SpectrumCase:
    """One ``boxaffine spectrum`` command."""

    model: str
    b: float
    hbar: float
    basis: int = 32
    levels: int = LEVELS
    tol: float = TOL

    @property
    def argv(self):
        argv = ["spectrum", "--model", self.model, "--levels", str(self.levels),
                "--tol", repr(self.tol), "--hbar", repr(self.hbar)]
        if self.model == "half-ho":
            return argv + ["--method", "shooting"]
        return argv + ["--b", repr(self.b), "--basis-size", str(self.basis), "--method", "both"]


@dataclass(frozen=True)
class BoxCase:
    """One flat-box or inverse-square-box model at (b, hbar)."""

    model: str
    b: float
    hbar: float

    def build(self):
        geom = BoxGeometry(self.b, self.hbar)
        return AqBox(geom) if self.model == "aq-box" else CqBox(geom)


@dataclass(frozen=True)
class Workload:
    name: str
    spectra: Tuple[SpectrumCase, ...] = ()
    sweeps: Tuple[BoxCase, ...] = ()
    eigenpairs: Tuple[BoxCase, ...] = ()


def _box_at_scale(rng, model, log10_scale):
    """(b, hbar) with hbar^2 / b^2 = 10^log10_scale and b spread over [0.1, 10]."""
    b = 10.0 ** rng.uniform(-1.0, 1.0)
    return BoxCase(model, b, b * 10.0 ** (0.5 * log10_scale))


def make_workload(name, seed):
    rng = random.Random(seed)
    if name == "cross-check":
        # one aq-box case per decade of hbar^2/b^2 from 1e-2 to 1e4, each basis
        # size twice so the scaling law can pair cases of equal size
        sizes = [32, 32, 48, 48, 64, 64]
        rng.shuffle(sizes)
        aq = [_box_at_scale(rng, "aq-box", d + rng.random()) for d in range(-2, 4)]
        cq = _box_at_scale(rng, "cq-box", rng.uniform(0.0, 2.0))
        spectra = [SpectrumCase("aq-box", c.b, c.hbar, n) for c, n in zip(aq, sizes)]
        spectra.append(SpectrumCase("cq-box", cq.b, cq.hbar, rng.choice((32, 48, 64))))
        spectra.append(SpectrumCase("half-ho", 1.0, 10.0 ** rng.uniform(-0.5, 0.5)))
        # energy scale 1e-6, independent of the seed: the absolute search width
        # fails some of these levels on every run
        spectra.append(SpectrumCase("aq-box", 1000.0, 1.0, 32))
        spectra.append(SpectrumCase("cq-box", 1000.0, 1.0, 32))
        return Workload(name, spectra=tuple(spectra))
    if name == "ritz-convergence":
        sweeps = [_box_at_scale(rng, model, d + rng.random())
                  for model in ("aq-box", "cq-box") for d in (-2, 0, 2)]
        eigenpairs = [_box_at_scale(rng, model, rng.uniform(-2.0, 3.0))
                      for model in ("aq-box", "cq-box")]
        return Workload(name, sweeps=tuple(sweeps), eigenpairs=tuple(eigenpairs))
    if name == "validate":
        return Workload(name)  # the acceptance suite fixes its own inputs
    raise KeyError(name)


def _spectrum(case):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(case.argv)
    return code, buf.getvalue()


def _calls(work):
    """The pass's operations as calls without arguments, in input order.

    Module attributes are looked up when a call runs, so a traced pass sees
    the tracer's wrappers.  validate runs acceptance.ALL_CRITERIA one by one,
    as acceptance.run_all does, so that each criterion is timed.
    """
    if work.name == "validate":
        return list(acceptance.ALL_CRITERIA)
    if work.spectra:
        return [functools.partial(_spectrum, case) for case in work.spectra]
    return ([lambda c=c: ritz.convergence_sweep(c.build(), SWEEP_SIZES, LEVELS)
             for c in work.sweeps]
            + [lambda c=c: ritz.compute_spectrum(c.build(), SPECTRUM_SIZE, n_diagnostics=LEVELS)
               for c in work.eigenpairs])


def run_pass(work):
    """One pass over the workload's inputs: [(output, seconds)], one per input."""
    results = []
    for call in _calls(work):
        t = time.perf_counter()
        output = call()
        results.append((output, time.perf_counter() - t))
    return results


def _scaled(energies, b, hbar):
    return [e * b * b / (hbar * hbar) for e in energies]


def check_pass(work, outputs):
    """Outcomes of one pass: a list of (operation weight in levels, outcome)
    and a list of problems that make the run incorrect outside any level."""
    if work.name == "validate":
        if [r.name.split()[0] for r in outputs] != [str(i) for i in range(1, 10)]:
            return [], ["validate: expected criteria 1-9 in order"]
        return [(VALIDATE_LEVELS.get(i + 1, 0), checks.OK if r.passed else checks.WRONG)
                for i, r in enumerate(outputs)], []
    if work.spectra:
        return _check_spectra(work.spectra, outputs)
    return _check_ritz(work, outputs[:len(work.sweeps)], outputs[len(work.sweeps):])


def _check_spectra(cases, outputs):
    problems = []
    reports = []
    for case, (code, text) in zip(cases, outputs):
        try:
            reports.append(json.loads(text))
        except json.JSONDecodeError:
            reports.append(None)
            problems.append(f"{case.argv}: exit {code}, no JSON report")
    # scaling-law partners: the next aq-box case with the same basis size
    scaled = {}
    for i, (case, report) in enumerate(zip(cases, reports)):
        if case.model == "aq-box" and report is not None:
            energies = [lv["energy_rayleigh_ritz"] for lv in report["levels"]]
            scaled.setdefault(case.basis, []).append((i, _scaled(energies, case.b, case.hbar)))
    partner = {}
    for group in scaled.values():
        for j, (i, _) in enumerate(group):
            if len(group) > 1:
                partner[i] = group[(j + 1) % len(group)][1]
    ops = []
    for i, (case, report, (code, _)) in enumerate(zip(cases, reports, outputs)):
        if report is None:
            ops.extend((1, checks.WRONG) for _ in range(case.levels))
            continue
        outcomes = checks.spectrum_levels(case, report, partner.get(i))
        if code != checks.expected_exit(case, outcomes):
            problems.append(f"{case.argv}: exit {code}")
        ops.extend((1, o) for o in outcomes)
    return ops, problems


def _check_ritz(work, sweeps, spectra):
    # the scaling law pairs each aq-box result with the first aq-box sweep's
    # last row, scaled to b = hbar = 1; that sweep is itself paired with the
    # second one
    aq = [(c, t) for c, t in zip(work.sweeps, sweeps) if c.model == "aq-box"]
    refs = [_scaled(t.energies[-1], c.b, c.hbar) for c, t in aq[:2]]
    ops = []
    for case, table in zip(work.sweeps, sweeps):
        ref = refs[1] if table is aq[0][1] else refs[0]
        outcomes = checks.sweep_levels(case.model, case.b, case.hbar, table.sizes,
                                       table.energies, ref)
        ops.extend((1, o) for o in outcomes)
    for case, spec in zip(work.eigenpairs, spectra):
        prob = ritz.assemble_matrices(case.build(), spec.basis)
        outcomes = checks.eigenpair_levels(case.model, case.b, case.hbar, prob.H, prob.S,
                                           spec.eigenvalues, spec.coefficients, spec.levels,
                                           refs[0])
        ops.extend((1, o) for o in outcomes)
    return ops, []


def passed_levels(ops):
    """Eigenvalue levels that passed their checks in one pass."""
    return sum(w for w, o in ops if o == checks.OK)
