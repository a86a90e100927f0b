"""Command-line front end: spectra, potential dumps, derivative diagnostics,
convergence studies, and the built-in validation suite.

Each flag is declared once, in ``_FLAGS``: its default, its type, its
choices and its rules.  ``parse_config`` takes every value from the command
line, else from the ``--config`` file, else from that default; a file value
converts as its command-line text would, and every value meets the same
checks.  Which solvers a model admits follows from the walls it declares.
``main`` runs the command and writes its report as JSON or as the command's
CSV rows through ``_csv``, or prints each criterion's line for ``validate``.

Reports are versioned JSON (schema "boxaffine/1") or plot-ready CSV.  Exit
codes: 0 success, 2 usage error (including a non-finite number, --b or --hbar
outside SCALE_RANGE, and a `potential` grid with a non-finite value), 3
cross-method disagreement, 4 solver failure or a failed criterion.
"""

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable, Optional, Tuple

import numpy as np

from . import acceptance, ritz, shooting
from .boxmodes import BoxGeometry, cq_eigenfunction_extended
from .piecewise import (QuadratureFailure, discrete_second_derivative_norm, flat_ramp,
                        l2_norm_squared, weak_second_derivative)
from .potentials import (DIRICHLET, AntiBox, AqBox, CqBox, DomainError, HalfHarmonic,
                         ModelUnsupported, boundary_asymptotic_ratio, evaluate_potential)

SCHEMA_VERSION = "boxaffine/1"
AGREEMENT_THRESHOLD = 1e-5
MODELS = {"cq-box": CqBox, "aq-box": AqBox, "half-ho": HalfHarmonic, "anti-box": AntiBox}
MAX_LEVELS = 12
# accepted --b and --hbar: inside it hbar^2/b^2 and the float powers of b and
# hbar that the solvers take stay finite, so none raises OverflowError; the
# Ritz pencil holds only hbar^2/b and b
SCALE_RANGE = (1e-50, 1e50)
MAX_POINTS = 10**6  # most --points of a potential dump

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DISAGREE = 3
EXIT_SOLVER = 4

SOLVER_ERRORS = (ritz.NoConvergence, shooting.BracketFailure, shooting.FitFailure,
                 QuadratureFailure, ModelUnsupported, DomainError)


class UsageError(Exception):
    """Bad flag/config combination; maps to exit code 2."""


# published shape of the `spectrum` report; unknown keys are never emitted
SPECTRUM_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "config", "units", "levels", "timings"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "config": {"type": "object"},
        "units": {"type": "object"},
        "levels": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["index"],
                "properties": {
                    "index": {"type": "integer", "minimum": 0},
                    "energy": {"type": "number"},
                    "parity": {"enum": ["even", "odd", None]},
                    "node_count": {"type": "integer", "minimum": 0},
                    "boundary_exponent": {"type": "number"},
                    "energy_rayleigh_ritz": {"type": "number"},
                    "energy_shooting": {"type": "number"},
                    "relative_delta": {"type": "number", "minimum": 0},
                },
            },
        },
        "agreement": {
            "type": "object",
            "additionalProperties": False,
            "required": ["threshold", "max_relative_delta", "pass"],
            "properties": {
                "threshold": {"type": "number"},
                "max_relative_delta": {"type": "number"},
                "pass": {"type": "boolean"},
            },
        },
        "timings": {"type": "object"},
    },
}


@dataclass(frozen=True)
class Flag:
    """One flag, also a --config key: its default (None: unset), the type its
    text converts to, the values it may take, and its rules, each a predicate
    with the end of the usage message for a value that fails it."""

    default: object
    type: Callable = str
    choices: Optional[Tuple[str, ...]] = None
    rules: Tuple[Tuple[Callable, str], ...] = ()
    help: Optional[str] = None
    metavar: Optional[str] = None
    dest: Optional[str] = None  # the RunConfig field, if not the key with "_" for "-"


def _within(lo, hi):
    return (lambda v: lo <= v <= hi), f"must be in [{lo}, {hi}]"


def _at_least(lo):
    return (lambda v: v >= lo), f"must be >= {lo:g}"


def _basis_sizes(text):
    """'8,16,24' -> (8, 16, 24); empty entries are skipped."""
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}")


# the range implies > 0; a value <= 0 is still named as such
_SCALE_RULES = ((lambda v: v > 0, "must be > 0"), _within(*SCALE_RANGE))

_FLAGS = {
    "model": Flag("cq-box", choices=tuple(MODELS), dest="model_name"),
    "b": Flag(1.0, float, rules=_SCALE_RULES, help="box half-width"),
    "hbar": Flag(1.0, float, rules=_SCALE_RULES),
    "W": Flag(0.0, float, rules=(_at_least(0),), help="anti-box pull strength"),
    "levels": Flag(6, int, rules=(_within(1, MAX_LEVELS),)),
    "basis-size": Flag(32, int, rules=(_within(1, ritz.MAX_BASIS),)),
    "grid-size": Flag(shooting.GRID_SIZE, int,
                      rules=(_within(shooting.MIN_GRID_SIZE, shooting.MAX_GRID_SIZE),),
                      help=f"shooting grid points, in [{shooting.MIN_GRID_SIZE}, "
                           f"{shooting.MAX_GRID_SIZE}]"),
    "tol": Flag(shooting.TOL, float, rules=((lambda v: shooting.MIN_TOL <= v <= 1e-2,
                                             f"must be in [{shooting.MIN_TOL:g}, 1e-2]"),),
                help="shooting search width, in units of hbar^2/b^2 (boxes) or hbar (half-ho); "
                     f"in [{shooting.MIN_TOL:g}, 1e-2]"),
    "method": Flag(None, choices=("rayleigh-ritz", "shooting", "both")),
    # unset, it is csv for `potential` and json otherwise
    "format": Flag(None, choices=("json", "csv"), dest="fmt",
                   help="report format; `potential` writes csv only"),
    "out": Flag(None),
    "dump-psi": Flag(None, metavar="DIR", help="also write shooting wavefunctions as "
                                               "DIR/psi_<k>.csv (method shooting or both)"),
    "x-min": Flag(None, float),
    "x-max": Flag(None, float),
    "points": Flag(199, int, rules=(_within(2, MAX_POINTS),)),
    "target": Flag("toy", choices=("toy", "cq-eigenfunction")),
    # the bound keeps n*pi/(2b) and its square finite at every accepted --b
    "n": Flag(1, int, rules=(_within(1, 10**6),), help="mode index for cq-eigenfunction"),
    "sizes": Flag("8,16,24,32,48", _basis_sizes, help="comma-separated ascending basis sizes",
                  rules=((lambda v: len(v) >= 2, "must list at least two basis sizes"),
                         (lambda v: all(x < y for x, y in zip(v, v[1:])), "must be strictly ascending"),
                         (lambda v: v[-1] <= ritz.MAX_BASIS, f"entries must be <= {ritz.MAX_BASIS}"))),
}


def _dest(key):
    return _FLAGS[key].dest or key.replace("-", "_")


# the keys each model field is filled from, in RunConfig.model
_MODEL_FIELD_KEYS = {"geom": ("b", "hbar"), "hbar": ("hbar",), "W": ("W",)}


@dataclass(frozen=True)
class RunConfig:
    """A checked command line, one field per _FLAGS key."""

    command: str
    model_name: str
    b: float
    hbar: float
    W: float
    method: Optional[str]
    levels: int
    basis_size: int
    grid_size: int
    tol: float
    fmt: str
    out: Optional[str]
    target: str
    n: int
    x_min: Optional[float]
    x_max: Optional[float]
    points: int
    sizes: Tuple[int, ...]
    dump_psi: Optional[str]

    def model(self):
        """The named model, each of its fields filled from this config."""
        values = {"geom": BoxGeometry(self.b, self.hbar), "hbar": self.hbar, "W": self.W}
        cls = MODELS[self.model_name]
        return cls(**{f.name: values[f.name] for f in fields(cls)})

    def unread_keys(self):
        """Keys of the command's flags that this run, as resolved, ignores."""
        if self.command == "check-derivatives":
            return {"b", "n"} if self.target == "toy" else set()
        unread = {"b", "hbar", "W"} - {key for f in fields(MODELS[self.model_name])
                                      for key in _MODEL_FIELD_KEYS[f.name]}
        if self.command == "spectrum":
            unread |= {"rayleigh-ritz": {"grid-size", "tol"},
                       "shooting": {"basis-size"}}.get(self.resolved_method(), set())
        return unread

    def resolved_method(self):
        """--method, else both solvers where Rayleigh-Ritz has a basis for the
        model's walls, and shooting alone elsewhere."""
        return self.method or ("both" if ritz.has_basis(MODELS[self.model_name]) else "shooting")


# each command is offered only the flags it reads, so a flag it would ignore
# is a usage error; a --config file may set the same keys
_COMMANDS = {
    "spectrum": ("solve for the lowest levels",
                 ("model", "b", "hbar", "levels", "basis-size", "grid-size", "tol", "method",
                  "format", "out", "dump-psi")),
    "potential": ("dump (x, V) samples as CSV",
                  ("model", "b", "hbar", "W", "format", "out", "x-min", "x-max", "points")),
    "check-derivatives": ("weak-derivative structure and mesh scaling",
                          ("b", "format", "out", "target", "n")),
    "convergence": ("eigenvalues across basis sizes",
                    ("model", "b", "hbar", "levels", "format", "out", "sizes")),
    "validate": ("run the built-in acceptance suite", ()),
}


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(prog="boxaffine",
                                     description="Box spectra with flat or inverse-square walls: "
                                                 "two cross-validating solvers plus weak-derivative diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key in keys:
            flag = _FLAGS[key]
            shown = flag.help if flag.default is None else \
                f"{flag.help or ''} (default {flag.default})".lstrip()
            p.add_argument(f"--{key}", dest=_dest(key), default=None, type=flag.type,
                           choices=flag.choices, metavar=flag.metavar, help=shown)
        if keys:
            p.add_argument("--config", default=None, help="flat JSON file; flags override its keys")
    return parser


def _from_text(key, flag, value):
    """A --config value or a default, converted as its command-line text
    would be: 2.9 is no int, and null no number."""
    if value is None and flag.default is None:
        return None  # an optional key left unset
    try:
        return flag.type(value if isinstance(value, str) else json.dumps(value))
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"--config: bad value {value!r} for {key!r}")


def parse_config(argv):
    """argv -> RunConfig; config-file keys fill anything flags leave unset."""
    args = _build_parser().parse_args(argv)

    file_cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"--config: cannot read {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise UsageError("--config: file must hold a flat JSON object")
        unknown = set(file_cfg) - set(_COMMANDS[args.command][1])
        if unknown:
            raise UsageError(f"--config: keys {sorted(unknown)} are not read by `{args.command}`")

    values = {}
    for key, flag in _FLAGS.items():
        value = getattr(args, _dest(key), None)  # a flag comes typed from argparse
        if value is None:
            value = _from_text(key, flag, file_cfg.get(key, flag.default))
        if value is not None:
            if flag.type is float and not math.isfinite(value):
                raise UsageError(f"--{key} must be finite")
            if flag.choices and value not in flag.choices:
                raise UsageError(f"unknown {key} {value!r}; valid: {', '.join(flag.choices)}")
            for ok, text in flag.rules:
                if not ok(value):
                    raise UsageError(f"--{key} {text}")
        values[_dest(key)] = value
    values["fmt"] = values["fmt"] or ("csv" if args.command == "potential" else "json")
    cfg = RunConfig(command=args.command, **values)

    # which solvers a model admits follows from its declared walls
    model = MODELS[cfg.model_name]
    if cfg.command == "spectrum":
        if not model.walls:
            raise UsageError(f"{cfg.model_name} supports only `potential`")
        if cfg.method in ("rayleigh-ritz", "both") and not ritz.has_basis(model):
            raise UsageError(f"{cfg.model_name} supports only `--method shooting`")
        if cfg.resolved_method() != "shooting" and cfg.levels > cfg.basis_size:
            raise UsageError("--levels must be <= --basis-size when Rayleigh-Ritz runs")
        if cfg.dump_psi and cfg.method == "rayleigh-ritz":
            raise UsageError("--dump-psi writes shooting wavefunctions; use --method shooting or both")
    if cfg.command == "convergence":
        if not ritz.has_basis(model):
            usable = " or ".join(name for name, cls in MODELS.items() if ritz.has_basis(cls))
            raise UsageError(f"{cfg.model_name} has no basis-size convergence study; use {usable}")
        if cfg.sizes[0] < cfg.levels:
            raise UsageError("smallest basis size must be >= --levels")
    if cfg.command == "potential" and cfg.fmt == "json":
        raise UsageError("--format json: `potential` writes CSV only")
    given = set(file_cfg) | {key for key in _FLAGS if getattr(args, _dest(key), None) is not None}
    ignored = sorted(given & cfg.unread_keys())
    if ignored:
        raise UsageError(f"{', '.join('--' + k for k in ignored)}: not read by this `{cfg.command}` run")
    if cfg.out:
        # before the run, so no solve is thrown away; the file is opened only
        # after it, so an old report is not truncated by a run that fails.
        # open(path, "w") needs a writable file, or a writable folder for a
        # new one, and no more
        if os.path.exists(cfg.out):
            if os.path.isdir(cfg.out) or not os.access(cfg.out, os.W_OK):
                raise UsageError(f"--out: cannot write {cfg.out}: not a writable file")
        else:
            folder = os.path.dirname(cfg.out) or "."
            if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
                raise UsageError(f"--out: cannot write {cfg.out}: {folder} is not a writable directory")
    return cfg


def _config_echo(cfg):
    echo = {
        "command": cfg.command,
        "model": cfg.model_name,
        "b": cfg.b,
        "hbar": cfg.hbar,
        "levels": cfg.levels,
        "basis_size": cfg.basis_size,
        "grid_size": cfg.grid_size,
        "tol": cfg.tol,
        "format": cfg.fmt,
    }
    if cfg.model_name == "anti-box":
        echo["W"] = cfg.W
    return echo


def _base_report(cfg):
    return {
        "schema": SCHEMA_VERSION,
        "config": _config_echo(cfg),
        "units": {
            "mass_convention": "2m=1",
            "energy": "hbar^2/b^2 scale for the boxes (dimensionless when b=hbar=1); "
                      "hbar scale for half-ho",
        },
    }


def run_spectrum(cfg):
    """Solve the configured model; returns (report, exit_code)."""
    model = cfg.model()
    method = cfg.resolved_method()
    report = _base_report(cfg)
    report["config"]["method"] = method
    # the flat box numbers its closed-form modes from 1
    index_base = 1 if model.walls == (DIRICHLET, DIRICHLET) else 0
    timings = {}

    rr = None
    if method in ("rayleigh-ritz", "both"):
        t0 = time.perf_counter()
        rr = ritz.compute_spectrum(model, cfg.basis_size, n_diagnostics=cfg.levels)
        timings["rayleigh_ritz_s"] = time.perf_counter() - t0

    sh = None
    if method in ("shooting", "both"):
        t0 = time.perf_counter()
        if cfg.dump_psi:
            try:
                os.makedirs(cfg.dump_psi, exist_ok=True)
            except OSError as exc:
                raise UsageError(f"--dump-psi: cannot make {cfg.dump_psi}: {exc}")
        sh = shooting.spectrum(model, cfg.levels, tol=cfg.tol, grid_size=cfg.grid_size)
        energies = sh.eigenvalues.tolist()
        # final shots only where they are read: levels without Ritz, or --dump-psi;
        # exponent probes only where shooting fills the levels
        shots = ([shooting.numerov_integrate(model, E, cfg.grid_size) for E in energies]
                 if rr is None or cfg.dump_psi else [])
        exponents = [shooting.boundary_exponent_probe(model, E) for E in energies] if rr is None else []
        if cfg.dump_psi:
            for k, shot in enumerate(shots):
                _write("dump-psi", os.path.join(cfg.dump_psi, f"psi_{index_base + k}.csv"),
                       _csv([("x", "psi"), *zip(shot.xs, shot.psi)]))
        timings["shooting_s"] = time.perf_counter() - t0

    levels = []
    deltas = []
    # Ritz fills the level where it ran; `both` adds the comparison
    for k, level in enumerate(rr.levels if rr is not None else shots):
        rec = {"index": index_base + k, "energy": float(level.energy), "parity": level.parity,
               "node_count": level.node_count,
               "boundary_exponent": float(level.boundary_exponent if rr is not None else exponents[k])}
        if rr is not None and sh is not None:
            e_rr, e_sh = level.energy, sh.eigenvalues[k]
            delta = abs(e_sh - e_rr) / abs(e_rr)
            rec.update(energy_rayleigh_ritz=float(e_rr), energy_shooting=float(e_sh),
                       relative_delta=float(delta))
            deltas.append(delta)
        levels.append(rec)
    report["levels"] = levels

    code = EXIT_OK
    if method == "both":
        agreement_pass = bool(max(deltas) <= AGREEMENT_THRESHOLD)
        report["agreement"] = {
            "threshold": AGREEMENT_THRESHOLD,
            "max_relative_delta": float(max(deltas)),
            "pass": agreement_pass,
        }
        if not agreement_pass:
            code = EXIT_DISAGREE
    report["timings"] = timings
    return report, code


def run_check_derivatives(cfg):
    """Weak-derivative structure, L2 classification, and the h-scaling table."""
    report = _base_report(cfg)
    report["config"]["target"] = cfg.target
    if cfg.target == "toy":
        # interior sampling: the kink function lives on the open interval,
        # and the quantity of interest is the delta at 0, not edge effects
        func, interior = flat_ramp(), True
        hs = [2.0 ** -k for k in range(6, 13)]
    else:
        report["config"]["n"] = cfg.n
        func, interior = cq_eigenfunction_extended(cfg.n, BoxGeometry(cfg.b)), False
        hs = [cfg.b * 2.0 ** -k for k in range(6, 13)]

    t0 = time.perf_counter()
    w2 = weak_second_derivative(func)
    norm = l2_norm_squared(w2)
    table = [{"h": h, "norm": discrete_second_derivative_norm(func, h, interior_only=interior)}
             for h in hs]
    slope = float(np.polyfit(np.log([r["h"] for r in table]),
                             np.log([r["norm"] for r in table]), 1)[0])
    report.update({
        "delta_terms": [{"location": d.location, "coefficient": d.coefficient}
                        for d in w2.delta_terms],
        "delta_prime_terms": [{"location": d.location, "coefficient": d.coefficient}
                              for d in w2.delta_prime_terms],
        "l2_norm_squared": {"finite": math.isfinite(norm),
                            "value": norm if math.isfinite(norm) else None},
        "square_integrable": w2.is_square_integrable,
        "h_scaling": table,
        "fitted_slope": slope,
    })
    report["timings"] = {"total_s": time.perf_counter() - t0}
    return report, EXIT_OK


def run_potential(cfg):
    """(x, V) CSV rows, the header first; aq-box adds the wall-asymptote ratio
    column.  Its report is these rows."""
    model, b, root = cfg.model(), cfg.b, math.sqrt(cfg.hbar)
    lo, hi = {"cq-box": (-0.99 * b, 0.99 * b), "aq-box": (-0.99 * b, 0.99 * b),
              "half-ho": (0.01 * root, 6.0 * root), "anti-box": (1.01 * b, 5.0 * b)}[cfg.model_name]
    lo = lo if cfg.x_min is None else cfg.x_min
    hi = hi if cfg.x_max is None else cfg.x_max
    if not lo < hi:
        raise UsageError("--x-min must be < --x-max")
    header = ["x", "V"]
    # a value that overflows is reported below as a usage error, not warned of
    with np.errstate(all="ignore"):
        xs = np.linspace(lo, hi, cfg.points)
        try:
            columns = [xs, evaluate_potential(model, xs)]
        except DomainError as exc:
            raise UsageError(f"grid touches a singular point or leaves the domain: {exc}")
        if cfg.model_name == "aq-box":
            columns.append(boundary_asymptotic_ratio(xs, model.geom))
            header.append("boundary_asymptotic_ratio")
    for name, column in zip(header, columns):
        if not np.all(np.isfinite(column)):
            raise UsageError(f"grid gives a non-finite {name}; narrow --x-min and --x-max")
    return [header, *zip(*columns)], EXIT_OK


def run_convergence(cfg):
    """Basis-size sweep report."""
    report = _base_report(cfg)
    report["config"]["sizes"] = list(cfg.sizes)
    t0 = time.perf_counter()
    table = ritz.convergence_sweep(cfg.model(), cfg.sizes, cfg.levels)
    report["convergence"] = {
        "sizes": list(table.sizes),
        "energies": [[float(e) for e in row] for row in table.energies],
        "final_relative_change": [float(c) for c in table.final_change],
    }
    report["timings"] = {"total_s": time.perf_counter() - t0}
    return report, EXIT_OK


def _csv(rows):
    """CSV text of rows, the header first: a float cell, numpy's included, as
    repr(float(v)); None as an empty cell; anything else as str(v)."""
    cell = lambda v: "" if v is None else repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
    return "".join(",".join(map(cell, row)) + "\n" for row in rows)


def _spectrum_rows(report):
    levels = report["levels"]
    cols = ["index"] + sorted({key for rec in levels for key in rec} - {"index"})
    return [cols] + [[rec.get(c) for c in cols] for rec in levels]


def _derivatives_rows(report):
    return [("h", "norm")] + [(r["h"], r["norm"]) for r in report["h_scaling"]]


def _convergence_rows(report):
    conv = report["convergence"]
    header = ["N"] + [f"E{k}" for k in range(len(conv["energies"][0]))]
    return [header] + [[n, *row] for n, row in zip(conv["sizes"], conv["energies"])]


def _write(flag, path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"--{flag}: cannot write {path}: {exc}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # each report command's runner and CSV row builder (`potential` reports
    # its rows); built per call, so the runners are the module's bindings at
    # call time, wrapped ones included
    reports = {"spectrum": (run_spectrum, _spectrum_rows), "potential": (run_potential, list),
               "check-derivatives": (run_check_derivatives, _derivatives_rows),
               "convergence": (run_convergence, _convergence_rows)}
    try:
        try:
            cfg = parse_config(argv)
        except SystemExit as exc:  # argparse usage failure (or --help)
            return int(exc.code or 0)
        if cfg.command == "validate":
            passed = True
            for res in acceptance.run_all():
                print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}", flush=True)
                passed &= res.passed
            return EXIT_OK if passed else EXIT_SOLVER
        run, to_rows = reports[cfg.command]
        report, code = run(cfg)
        text = (json.dumps(report, sort_keys=True, indent=2) + "\n" if cfg.fmt == "json"
                else _csv(to_rows(report)))
        if cfg.out:
            _write("out", cfg.out, text)
        else:
            sys.stdout.write(text)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SOLVER_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
