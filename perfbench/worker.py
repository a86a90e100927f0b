"""Run one workload in this process and print its figures as one JSON line.

Started by run.py, which sets PYTHONPATH and the BLAS thread count and
passes --t0, its monotonic clock just before the start: set-up time runs
from there to the moment the workload's inputs are ready, so it covers the
interpreter start, the package import and the generation of inputs.

Untraced (--trace 0): whole passes over the inputs until --seconds have
gone by; each input is timed, and each pass is then checked.  Traced
(--trace 1): rounds of one untraced and one traced pass; the per-layer
figures come from the traced passes and the tracing overhead from comparing
the two.
"""

import argparse
import ctypes
import glob
import importlib.util
import json
import os
import platform
import resource
import statistics
import time

import numpy
import scipy

import checks
import workloads
from tracing import Tracer, layer_metrics


def blas_threads():
    """Thread count each bundled OpenBLAS reports, by library file."""
    found = {}
    for pkg in (numpy, scipy):
        for path in glob.glob(os.path.join(os.path.dirname(pkg.__file__) + ".libs", "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[os.path.basename(path)] = fn()
                    break
    return found


def machine_facts():
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


class Samples:
    """Per-input times of the passes of one kind (untraced or traced)."""

    def __init__(self):
        self.passes = []  # per pass: seconds of each input, in input order

    def add(self, results):
        self.passes.append([dt for _, dt in results])

    def typical(self):
        """A pass at typical speed: the sum over inputs of each input's
        median time.  See README.md, "Why the median time"."""
        return sum(statistics.median(col) for col in zip(*self.passes))

    def pass_seconds(self):
        return [sum(p) for p in self.passes]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the traced passes' spans")
    args = parser.parse_args()
    work = workloads.make_workload(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    untraced, traced = Samples(), Samples()
    layers, spans = [], []  # per traced pass: per-layer figures, spans
    ops, problems, passed = [], [], []
    tracer = Tracer() if args.trace else None

    def check(results):
        pass_ops, pass_problems = workloads.check_pass(work, [out for out, _ in results])
        ops.extend(pass_ops)
        problems.extend(pass_problems)
        passed.append(workloads.passed_levels(pass_ops))

    start = time.perf_counter()
    while True:
        results = workloads.run_pass(work)
        untraced.add(results)
        check(results)
        if tracer is not None:
            tracer.install()
            try:
                results = workloads.run_pass(work)
            finally:
                tracer.uninstall()
            traced.add(results)
            layers.append(layer_metrics(tracer.spans))
            t0 = tracer.spans[0][1]
            spans.append([[n, s - t0, e - t0, p, w] for n, s, e, p, w in tracer.spans])
            del tracer.spans[:]
            check(results)
        if time.perf_counter() - start >= args.seconds:
            break

    if tracer is None:
        metrics = {
            "run_s": (untraced.typical(), "s"),
            "levels_per_s": (min(passed) / untraced.typical(), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = {name: (statistics.median(pl[name][0] for pl in layers), unit)
                   for name, (_, unit) in layers[0].items()}
        metrics["trace.overhead_pct"] = (100.0 * (traced.typical() / untraced.typical() - 1.0), "%")
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "points"],
                       "passes": spans}, fh)
    failures = [o for _, o in ops if o != checks.OK]
    print(json.dumps({
        "setup_s": setup_s,
        "correct": not problems and checks.WRONG not in failures,
        "attempted": len(ops),
        "failed": len(failures),
        "known_faults": failures.count(checks.KNOWN_FAULT),
        "problems": problems[:20],
        "pass_s": untraced.pass_seconds(),
        "traced_pass_s": traced.pass_seconds(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "machine": machine_facts(),
    }))


if __name__ == "__main__":
    main()
