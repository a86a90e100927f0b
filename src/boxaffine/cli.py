"""Command-line front end: spectra, potential dumps, derivative diagnostics,
convergence studies, and the built-in validation suite.

Reports are versioned JSON (schema "boxaffine/1") or plot-ready CSV.  Exit
codes: 0 success, 2 usage error (including --b or --hbar outside
SCALE_RANGE), 3 cross-method disagreement, 4 solver failure.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from . import acceptance, ritz, shooting
from .boxmodes import BoxGeometry, cq_eigenfunction_extended
from .piecewise import (QuadratureFailure, discrete_second_derivative_norm, flat_ramp,
                        l2_norm_squared, weak_second_derivative)
from .potentials import (AntiBox, AqBox, CqBox, DomainError, HalfHarmonic,
                         ModelUnsupported, boundary_asymptotic_ratio, evaluate_potential)
from .quadrature import ConvergenceFailure

SCHEMA_VERSION = "boxaffine/1"
AGREEMENT_THRESHOLD = 1e-5
MODELS = {"cq-box": CqBox, "aq-box": AqBox, "half-ho": HalfHarmonic, "anti-box": AntiBox}
MODEL_NAMES = tuple(MODELS)
METHODS = ("rayleigh-ritz", "shooting", "both")
MAX_LEVELS = 12
# accepted --b and --hbar: inside it hbar^2/b^2 and the float powers of b and
# hbar that the solvers take stay finite, so none raises OverflowError; a Ritz
# matrix that still overflows (the aq-box overlap holds b^7) ends in exit 4
SCALE_RANGE = (1e-50, 1e50)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DISAGREE = 3
EXIT_SOLVER = 4

SOLVER_ERRORS = (ritz.NotPositiveDefinite, ritz.NoConvergence, shooting.BracketFailure,
                 shooting.FitFailure, QuadratureFailure, ConvergenceFailure,
                 ModelUnsupported, DomainError)


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


_DEFAULTS = {
    "model": "cq-box",
    "b": 1.0,
    "hbar": 1.0,
    "W": 0.0,
    "levels": 6,
    "basis-size": 32,
    "grid-size": 20001,
    "tol": 1e-8,
    "method": None,  # resolved per model
    "format": None,  # resolved per command: csv for `potential`, json otherwise
    "out": None,
    "target": "toy",
    "n": 1,
    "x-min": None,
    "x-max": None,
    "points": 199,
    "sizes": "8,16,24,32,48",
}


@dataclass(frozen=True)
class RunConfig:
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
    target: str = "toy"
    n: int = 1
    x_min: Optional[float] = None
    x_max: Optional[float] = None
    points: int = 199
    sizes: Tuple[int, ...] = ()
    dump_psi: Optional[str] = None

    def model(self):
        """The named model, each of its fields filled from this config."""
        values = {"geom": BoxGeometry(self.b, self.hbar), "hbar": self.hbar, "W": self.W}
        cls = MODELS[self.model_name]
        return cls(**{f.name: values[f.name] for f in fields(cls)})


def _build_parser():
    parser = argparse.ArgumentParser(prog="boxaffine",
                                     description="Box spectra with flat or inverse-square walls: "
                                                 "two cross-validating solvers plus weak-derivative diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", choices=MODEL_NAMES, default=None)
        p.add_argument("--b", type=float, default=None, help="box half-width")
        p.add_argument("--hbar", type=float, default=None)
        p.add_argument("--W", type=float, default=None, help="anti-box pull strength")
        p.add_argument("--levels", type=int, default=None)
        p.add_argument("--basis-size", type=int, default=None)
        p.add_argument("--grid-size", type=int, default=None)
        p.add_argument("--tol", type=float, default=None,
                       help="shooting search width, in units of hbar^2/b^2 (boxes) "
                            "or hbar (half-ho); in [1e-10, 1e-2]")
        p.add_argument("--method", choices=METHODS, default=None)
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="report format; `potential` writes csv only")
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None, help="flat JSON file; flags override its keys")

    p = sub.add_parser("spectrum", help="solve for the lowest levels")
    add_common(p)
    p.add_argument("--dump-psi", default=None, metavar="DIR",
                   help="also write shooting wavefunctions as DIR/psi_<k>.csv "
                        "(method shooting or both)")
    p = sub.add_parser("potential", help="dump (x, V) samples as CSV")
    add_common(p)
    p.add_argument("--x-min", type=float, default=None)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p = sub.add_parser("check-derivatives", help="weak-derivative structure and mesh scaling")
    add_common(p)
    p.add_argument("--target", choices=("toy", "cq-eigenfunction"), default=None)
    p.add_argument("--n", type=int, default=None, help="mode index for cq-eigenfunction")
    p = sub.add_parser("convergence", help="eigenvalues across basis sizes")
    add_common(p)
    p.add_argument("--sizes", default=None, help="comma-separated ascending basis sizes")
    p = sub.add_parser("validate", help="run the built-in acceptance suite")
    add_common(p)
    return parser


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
        unknown = set(file_cfg) - set(_DEFAULTS)
        if unknown:
            raise UsageError(f"--config: unknown keys {sorted(unknown)}")

    def pick(key, convert=None):
        # flags come typed from argparse, so only a config-file value can fail
        # to convert; an unset optional key stays None
        value = getattr(args, key.replace("-", "_"), None)
        if value is None:
            value = file_cfg.get(key, _DEFAULTS[key])
        if convert is None or (value is None and _DEFAULTS[key] is None):
            return value
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError):
            raise UsageError(f"--config: bad value {value!r} for {key!r}")

    model_name = pick("model")
    if model_name not in MODEL_NAMES:
        raise UsageError(f"unknown model {model_name!r}; valid: {', '.join(MODEL_NAMES)}")
    method = pick("method")
    if method is not None and method not in METHODS:
        raise UsageError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")
    fmt = pick("format")
    if fmt is None:
        fmt = "csv" if args.command == "potential" else "json"
    if fmt not in ("json", "csv"):
        raise UsageError(f"--format must be json or csv, got {fmt!r}")

    b = pick("b", float)
    hbar = pick("hbar", float)
    W = pick("W", float)
    levels = pick("levels", int)
    basis_size = pick("basis-size", int)
    grid_size = pick("grid-size", int)
    tol = pick("tol", float)
    n = pick("n", int)

    if not (b > 0 and math.isfinite(b)):
        raise UsageError("--b must be > 0")
    if not (hbar > 0 and math.isfinite(hbar)):
        raise UsageError("--hbar must be > 0")
    lo, hi = SCALE_RANGE
    for flag, value in (("--b", b), ("--hbar", hbar)):
        if not lo <= value <= hi:
            raise UsageError(f"{flag} must be in [{lo:g}, {hi:g}]")
    if W < 0:
        raise UsageError("--W must be >= 0")
    if not 1 <= levels <= MAX_LEVELS:
        raise UsageError(f"--levels must be in [1, {MAX_LEVELS}]")
    if not 1 <= basis_size <= ritz.MAX_BASIS:
        raise UsageError(f"--basis-size must be in [1, {ritz.MAX_BASIS}]")
    if grid_size < 1000:
        raise UsageError("--grid-size must be >= 1000")
    if not 1e-10 <= tol <= 1e-2:
        raise UsageError("--tol must be in [1e-10, 1e-2]")
    if n < 1:
        raise UsageError("--n must be >= 1")

    sizes_raw = pick("sizes", str)
    try:
        sizes = tuple(int(s) for s in sizes_raw.split(",") if s.strip())
    except ValueError:
        raise UsageError(f"--sizes: cannot parse {sizes_raw!r}")

    cfg = RunConfig(
        command=args.command,
        model_name=model_name,
        b=b, hbar=hbar, W=W,
        method=method,
        levels=levels,
        basis_size=basis_size,
        grid_size=grid_size,
        tol=tol,
        fmt=fmt,
        out=pick("out", str),
        target=pick("target", str),
        n=n,
        x_min=pick("x-min", float),
        x_max=pick("x-max", float),
        points=pick("points", int),
        sizes=sizes,
        dump_psi=getattr(args, "dump_psi", None),
    )

    if cfg.command == "spectrum" and cfg.model_name == "anti-box":
        raise UsageError("anti-box supports only `potential`")
    if cfg.command == "convergence" and cfg.model_name in ("anti-box", "half-ho"):
        raise UsageError(f"{cfg.model_name} has no basis-size convergence study; use cq-box or aq-box")
    if cfg.model_name == "half-ho" and cfg.command == "spectrum":
        if cfg.method in ("rayleigh-ritz", "both"):
            raise UsageError("half-ho supports only `--method shooting`")
    if (cfg.command == "spectrum" and cfg.model_name in ("cq-box", "aq-box")
            and cfg.method != "shooting" and cfg.levels > cfg.basis_size):
        raise UsageError("--levels must be <= --basis-size when Rayleigh-Ritz runs")
    if cfg.command == "spectrum" and cfg.dump_psi and cfg.method == "rayleigh-ritz":
        raise UsageError("--dump-psi writes shooting wavefunctions; use --method shooting or both")
    if cfg.command == "potential" and cfg.fmt == "json":
        raise UsageError("--format json: `potential` writes CSV only")
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


@dataclass(frozen=True)
class ShootingLevel:
    """One converged shooting level, fields named as in ritz.LevelDiagnostics."""

    energy: float
    parity: Optional[str]
    node_count: int
    boundary_exponent: float


def run_spectrum(cfg):
    """Solve the configured model; returns (report, exit_code)."""
    model = cfg.model()
    method = cfg.method or ("shooting" if isinstance(model, HalfHarmonic) else "both")
    report = _base_report(cfg)
    report["config"]["method"] = method
    index_base = 1 if isinstance(model, CqBox) else 0
    timings = {}

    rr = None
    if method in ("rayleigh-ritz", "both"):
        t0 = time.perf_counter()
        rr = ritz.compute_spectrum(model, cfg.basis_size, n_diagnostics=cfg.levels)
        timings["rayleigh_ritz_s"] = time.perf_counter() - t0

    sh_levels = None
    if method in ("shooting", "both"):
        t0 = time.perf_counter()
        grid = shooting.default_grid(model, cfg.grid_size)
        if cfg.dump_psi:
            os.makedirs(cfg.dump_psi, exist_ok=True)
        sh_levels = []
        for k in range(cfg.levels):
            energy = shooting.eigenvalue_search(model, k, tol=cfg.tol, grid=grid)
            shot = shooting.numerov_integrate(model, energy, grid)
            sh_levels.append(ShootingLevel(energy, shot.parity, shot.node_count,
                                           shooting.boundary_exponent_probe(model, energy)))
            if cfg.dump_psi:
                path = os.path.join(cfg.dump_psi, f"psi_{index_base + k}.csv")
                with open(path, "w") as fh:
                    fh.write("x,psi\n")
                    for x, p in zip(shot.xs, shot.psi):
                        fh.write(f"{float(x)!r},{float(p)!r}\n")
        timings["shooting_s"] = time.perf_counter() - t0

    levels = []
    deltas = []
    for k in range(cfg.levels):
        # Ritz fills the level where it ran; `both` adds the comparison
        level = rr.levels[k] if rr is not None else sh_levels[k]
        rec = {"index": index_base + k, "energy": float(level.energy), "parity": level.parity,
               "node_count": level.node_count,
               "boundary_exponent": float(level.boundary_exponent)}
        if rr is not None and sh_levels is not None:
            e_rr, e_sh = rr.levels[k].energy, sh_levels[k].energy
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
    elif cfg.target == "cq-eigenfunction":
        report["config"]["n"] = cfg.n
        func, interior = cq_eigenfunction_extended(cfg.n, BoxGeometry(cfg.b, cfg.hbar)), False
        hs = [cfg.b * 2.0 ** -k for k in range(6, 13)]
    else:
        raise UsageError(f"unknown target {cfg.target!r}; valid: toy, cq-eigenfunction")

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


def _potential_grid(cfg, model):
    b = cfg.b
    defaults = {
        "cq-box": (-0.99 * b, 0.99 * b),
        "aq-box": (-0.99 * b, 0.99 * b),
        "half-ho": (0.01 * math.sqrt(cfg.hbar), 6.0 * math.sqrt(cfg.hbar)),
        "anti-box": (1.01 * b, 5.0 * b),
    }
    lo, hi = defaults[cfg.model_name]
    if cfg.x_min is not None:
        lo = cfg.x_min
    if cfg.x_max is not None:
        hi = cfg.x_max
    if not lo < hi:
        raise UsageError("--x-min must be < --x-max")
    if cfg.points < 2:
        raise UsageError("--points must be >= 2")
    xs = np.linspace(lo, hi, cfg.points)
    try:
        evaluate_potential(model, xs)
    except DomainError as exc:
        raise UsageError(f"grid touches a singular point or leaves the domain: {exc}")
    return xs


def run_potential(cfg):
    """(x, V) CSV rows; aq-box adds the wall-asymptote ratio column."""
    model = cfg.model()
    xs = _potential_grid(cfg, model)
    v = np.atleast_1d(evaluate_potential(model, xs))
    lines = []
    if cfg.model_name == "aq-box":
        ratio = np.atleast_1d(boundary_asymptotic_ratio(xs, model.geom))
        lines.append("x,V,boundary_asymptotic_ratio")
        for x, vv, rr in zip(xs, v, ratio):
            lines.append(f"{float(x)!r},{float(vv)!r},{float(rr)!r}")
    else:
        lines.append("x,V")
        for x, vv in zip(xs, v):
            lines.append(f"{float(x)!r},{float(vv)!r}")
    return "\n".join(lines) + "\n", EXIT_OK


def run_convergence(cfg):
    """Basis-size sweep report."""
    model = cfg.model()
    sizes = cfg.sizes
    if not sizes:
        raise UsageError("--sizes must list at least one basis size")
    if any(y <= x for x, y in zip(sizes, sizes[1:])):
        raise UsageError("--sizes must be strictly ascending")
    if sizes[0] < cfg.levels:
        raise UsageError("smallest basis size must be >= --levels")
    if sizes[-1] > ritz.MAX_BASIS:
        raise UsageError(f"--sizes entries must be <= {ritz.MAX_BASIS}")
    report = _base_report(cfg)
    report["config"]["sizes"] = list(sizes)
    t0 = time.perf_counter()
    table = ritz.convergence_sweep(model, sizes, cfg.levels)
    report["convergence"] = {
        "sizes": list(table.sizes),
        "energies": [[float(e) for e in row] for row in table.energies],
        "final_relative_change": [float(c) for c in table.final_change],
    }
    report["timings"] = {"total_s": time.perf_counter() - t0}
    return report, EXIT_OK


def run_validate(out=None):
    results = acceptance.run_all(verbose=True, stream=out or sys.stdout)
    return EXIT_OK if all(r.passed for r in results) else EXIT_SOLVER


def report_to_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def hash_checked_region(report_json):
    """Report text minus the timing section, for byte-identity checks."""
    obj = json.loads(report_json)
    obj.pop("timings", None)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _spectrum_csv(report):
    levels = report["levels"]
    cols = sorted({key for rec in levels for key in rec})
    cols.remove("index")
    cols = ["index"] + cols
    lines = [",".join(cols)]
    for rec in levels:
        lines.append(",".join("" if rec.get(c) is None else repr(rec[c]) if isinstance(rec.get(c), float)
                              else str(rec.get(c, "")) for c in cols))
    return "\n".join(lines) + "\n"


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            cfg = parse_config(argv)
        except SystemExit as exc:  # argparse usage failure (or --help)
            return int(exc.code or 0)

        if cfg.command == "validate":
            return run_validate()
        if cfg.command == "spectrum":
            report, code = run_spectrum(cfg)
            text = report_to_json(report) if cfg.fmt == "json" else _spectrum_csv(report)
            _emit(text, cfg.out)
            return code
        if cfg.command == "potential":
            text, code = run_potential(cfg)
            _emit(text, cfg.out)
            return code
        if cfg.command == "check-derivatives":
            report, code = run_check_derivatives(cfg)
            if cfg.fmt == "json":
                text = report_to_json(report)
            else:
                rows = ["h,norm"] + [f"{r['h']!r},{r['norm']!r}" for r in report["h_scaling"]]
                text = "\n".join(rows) + "\n"
            _emit(text, cfg.out)
            return code
        if cfg.command == "convergence":
            report, code = run_convergence(cfg)
            if cfg.fmt == "json":
                text = report_to_json(report)
            else:
                conv = report["convergence"]
                header = "N," + ",".join(f"E{k}" for k in range(len(conv["energies"][0])))
                rows = [header] + [f"{n}," + ",".join(repr(e) for e in row)
                                   for n, row in zip(conv["sizes"], conv["energies"])]
                text = "\n".join(rows) + "\n"
            _emit(text, cfg.out)
            return code
        raise UsageError(f"unknown command {cfg.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SOLVER_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
