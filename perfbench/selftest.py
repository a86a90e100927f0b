"""Show that the benchmark's checks reject wrong output.

    python3 perfbench/selftest.py

Each case takes real output from the package, confirms that the checks
accept it unchanged, corrupts it in one way and requires every corrupted
level to be rejected.  Exits 1 if a check accepts a corrupted output or
rejects an intact one.
"""

import copy
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from boxaffine import ritz  # noqa: E402
from boxaffine.boxmodes import BoxGeometry  # noqa: E402
from boxaffine.potentials import AqBox  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import SpectrumCase  # noqa: E402

failures = []


def expect(label, outcomes, rejected):
    """rejected: indices of the levels that must fail; all others must pass."""
    bad = [k for k, o in enumerate(outcomes) if (o != checks.OK) != (k in rejected)]
    print(f"{'ok  ' if not bad else 'FAIL'}  {label}: {outcomes}")
    if bad:
        failures.append(label)


def spectrum_cases():
    cases = (SpectrumCase("aq-box", 1.0, 1.0, 32, levels=4),
             SpectrumCase("aq-box", 2.0, 0.5, 32, levels=4),
             SpectrumCase("cq-box", 1.5, 2.0, 32, levels=4),
             SpectrumCase("half-ho", 1.0, 0.7, levels=4))
    work = workloads.Workload("cross-check", spectra=cases)
    outputs = [out for out, _ in workloads.run_pass(work)]
    ops, problems = workloads.check_pass(work, outputs)
    expect("spectrum reports as computed", [o for _, o in ops], set())
    if problems:
        failures.append(f"spectrum reports as computed: {problems}")
    reports = [json.loads(text) for _, text in outputs]
    partner = [[lv["energy_rayleigh_ritz"] * c.b ** 2 / c.hbar ** 2 for lv in r["levels"]]
               for c, r in zip(cases, reports) if c.model == "aq-box"]

    for i, case in ((0, cases[0]), (2, cases[2]), (3, cases[3])):
        scaled = copy.deepcopy(reports[i])
        for level in scaled["levels"]:
            for key in ("energy", "energy_rayleigh_ritz", "energy_shooting"):
                if key in level:
                    level[key] *= 1.0 + 1e-4
        expect(f"{case.model} energies scaled by 1 + 1e-4",
               checks.spectrum_levels(case, scaled, partner[1]), {0, 1, 2, 3})

    for i in (0, 2):  # the half line has no parity
        swapped = copy.deepcopy(reports[i])
        lv = swapped["levels"]
        lv[0]["parity"], lv[1]["parity"] = lv[1]["parity"], lv[0]["parity"]
        expect(f"{cases[i].model} parity of levels 0 and 1 swapped",
               checks.spectrum_levels(cases[i], swapped, partner[1]), {0, 1})


def sweep_case():
    model = AqBox(BoxGeometry(1.0, 1.0))
    table = ritz.convergence_sweep(model, (8, 16, 24, 32), 4)
    ref = table.energies[-1]
    expect("Ritz sweep as computed",
           checks.sweep_levels("aq-box", 1.0, 1.0, table.sizes, table.energies, ref), set())
    rising = table.energies.copy()
    rising[1, 2] = rising[2, 2] * (1.0 - 1e-10)  # level 2 rises from N=16 to N=24
    expect("Ritz sweep that rises with N at level 2",
           checks.sweep_levels("aq-box", 1.0, 1.0, table.sizes, rising, ref), {2})


def eigenpair_case():
    model = AqBox(BoxGeometry(1.0, 1.0))
    spec = ritz.compute_spectrum(model, 32, n_diagnostics=4)
    prob = ritz.assemble_matrices(model, spec.basis)
    ref = spec.eigenvalues[:4]

    def outcomes(vectors):
        return checks.eigenpair_levels("aq-box", 1.0, 1.0, prob.H, prob.S, spec.eigenvalues,
                                       vectors, spec.levels, ref)

    expect("Ritz eigenpairs as computed", outcomes(spec.coefficients), set())
    vecs = spec.coefficients.copy()
    vecs[:, 1] += 1e-6 * vecs[:, 3]  # residual ~1e-6 relative
    expect("eigenpair 1 with a large residual", outcomes(vecs), {1, 3})


spectrum_cases()
sweep_case()
eigenpair_case()
if failures:
    print(f"{len(failures)} check(s) misjudged: {failures}")
    sys.exit(1)
print("every corrupted output was rejected")
