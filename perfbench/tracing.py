"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` wraps each function named in ``TRACED`` and rebinds the
wrapper in every ``boxaffine`` module namespace (and tuple) that holds the
original, so calls through ``from ... import`` bindings are seen too.  A
span is (name, start, end, parent, work); ``work`` is the number of grid
points a Numerov sweep advanced, and 0 elsewhere.  Spans are kept in memory
and written out by the caller.
"""

import functools
import sys
import time

CRITERIA = ("cq_spectrum", "toy_delta", "obstruction_scaling", "mode_counting",
            "half_harmonic", "aq_box_cross_method", "scaling_law", "boundary_asymptotics",
            "infrastructure")

# (module, function) pairs to wrap.  shooting._numerov is the Numerov
# kernel's single entry point, where sweeps and grid points are counted.
TRACED = (
    ("cli", "main"), ("cli", "run_spectrum"),
    *(("acceptance", f"criterion_{i}_{name}") for i, name in enumerate(CRITERIA, 1)),
    ("ritz", "compute_spectrum"), ("ritz", "convergence_sweep"),
    ("ritz", "assemble_matrices"), ("ritz", "solve_generalized_symmetric"),
    ("shooting", "eigenvalue_search"), ("shooting", "numerov_integrate"),
    ("shooting", "wavefunction"), ("shooting", "boundary_exponent_probe"),
    ("shooting", "_numerov"),
    ("quadrature", "gauss_legendre"),
    ("potentials", "evaluate_potential"),
    ("piecewise", "weak_derivative"), ("piecewise", "weak_second_derivative"),
    ("piecewise", "l2_norm_squared"), ("piecewise", "discrete_second_derivative_norm"),
)


def _numerov_points(T, psi, i0):
    return T.shape[0] - 1 - i0


WORK = {"shooting._numerov": _numerov_points}


class Tracer:
    """Records spans while installed; ``spans`` keeps them until cleared."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, work]
        self._stack = []
        self._patches = []  # (namespace dict, key, original value)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          work(*args, **kwargs) if work else 0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self):
        """Wrap every traced function; raises LookupError if one is gone."""
        wrappers = {}
        for module, attr in TRACED:
            mod = sys.modules.get(f"boxaffine.{module}")
            fn = getattr(mod, attr, None)
            if not callable(fn):
                raise LookupError(f"traced function boxaffine.{module}.{attr} not found")
            wrappers[id(fn)] = self._wrap(f"{module}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "boxaffine" and not modname.startswith("boxaffine."):
                continue
            ns = vars(mod)
            for key, value in list(ns.items()):
                if id(value) in wrappers:
                    new = wrappers[id(value)]
                elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                    new = tuple(wrappers.get(id(v), v) for v in value)
                else:
                    continue
                self._patches.append((ns, key, value))
                ns[key] = new

    def uninstall(self):
        for ns, key, value in reversed(self._patches):
            ns[key] = value
        self._patches.clear()


def layer_times(spans):
    """Per span: (inclusive seconds, self seconds), self = duration minus the
    time covered by its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start, end - start - c) for (_, start, end, _, _), c in zip(spans, child)]


def _has_ancestor(spans, i, name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


FINAL_SHOTS = ("shooting.numerov_integrate", "shooting.wavefunction",
               "shooting.boundary_exponent_probe")


def layer_metrics(spans):
    """The per-layer metrics of one traced pass, from its spans."""
    times = layer_times(spans)
    incl, self_ = {}, {}
    calls = {}
    for (name, *_), (t_incl, t_self) in zip(spans, times):
        incl[name] = incl.get(name, 0.0) + t_incl
        self_[name] = self_.get(name, 0.0) + t_self
        calls[name] = calls.get(name, 0) + 1

    def ms(table, *names):
        return 1e3 * sum(table.get(n, 0.0) for n in names)

    levels = calls.get("shooting.eigenvalue_search", 0)
    search_sweeps = search_points = 0
    all_points = 0
    for i, (name, _, _, _, work) in enumerate(spans):
        if name != "shooting._numerov":
            continue
        all_points += work
        if _has_ancestor(spans, i, "shooting.eigenvalue_search"):
            search_sweeps += 1
            search_points += work
    final_shots = sum(calls.get(n, 0) for n in FINAL_SHOTS)

    def per_level(x):
        return x / levels if levels else 0.0

    metrics = {
        "shooting.search_ms": (ms(incl, "shooting.eigenvalue_search"), "ms"),
        "shooting.sweeps_per_level": (per_level(search_sweeps), "sweeps/level"),
        "shooting.points_per_level": (per_level(search_points), "points/level"),
        "shooting.sweep_ns_per_point": (
            1e9 * incl.get("shooting._numerov", 0.0) / all_points if all_points else 0.0,
            "ns/point"),
        "shooting.final_shots_per_level": (per_level(final_shots), "shots/level"),
        "shooting.final_shots_ms": (ms(incl, *FINAL_SHOTS), "ms"),
        "ritz.assemble_ms": (ms(self_, "ritz.assemble_matrices"), "ms"),
        "ritz.eigensolve_ms": (ms(self_, "ritz.solve_generalized_symmetric"), "ms"),
        "ritz.eigensolve_calls": (calls.get("ritz.solve_generalized_symmetric", 0), "count"),
        "ritz.diagnostics_ms": (ms(self_, "ritz.compute_spectrum"), "ms"),
        "quadrature.rule_ms": (ms(self_, "quadrature.gauss_legendre"), "ms"),
        "quadrature.rule_calls": (calls.get("quadrature.gauss_legendre", 0), "count"),
        "potentials.evaluate_ms": (ms(self_, "potentials.evaluate_potential"), "ms"),
        "potentials.evaluate_calls": (calls.get("potentials.evaluate_potential", 0), "count"),
        "piecewise.weak_derivative_ms": (
            ms(self_, "piecewise.weak_derivative", "piecewise.weak_second_derivative"), "ms"),
        "piecewise.l2_norm_ms": (ms(self_, "piecewise.l2_norm_squared"), "ms"),
        "piecewise.mesh_norm_ms": (ms(self_, "piecewise.discrete_second_derivative_norm"), "ms"),
        "cli.self_ms": (ms(self_, "cli.main", "cli.run_spectrum"), "ms"),
    }
    for i, name in enumerate(CRITERIA, 1):
        metrics[f"acceptance.criterion_{i}_s"] = (
            incl.get(f"acceptance.criterion_{i}_{name}", 0.0), "s")
    return metrics
