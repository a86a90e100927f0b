"""Benchmark for boxaffine: one workload, one seed, one run.

    python3 perfbench/run.py --workload cross-check --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
./src).  Each run starts fresh single-threaded Python processes
(perfbench/worker.py), BLAS included:

  * one process that imports the package, builds the inputs, runs whole
    passes over them for --seconds and checks every output;
  * untraced, SETUP_RUNS - 1 more processes, half before it and half after,
    that only import the package and build the inputs, for the set-up time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A fuller record, with the
samples and the machine facts, goes to perfbench/results/; a traced run also
writes its spans there.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("cross-check", "ritz-convergence", "validate")
SETUP_RUNS = 5     # set-up samples per run; the median is reported
DEADLINE_S = 175   # a run ends within 180 s
# One BLAS thread: the matrices are at most 64 x 64, and an idle OpenBLAS
# worker spinning on the second core made Ritz passes ~10 % slower and less
# steady on a 2-core VM (README.md).
BLAS_THREADS = "1"


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def start_worker(args, env, setup_only=False):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--t0", repr(time.monotonic())]
    if setup_only:
        argv.append("--setup-only")
    elif args.trace:
        argv += ["--spans", os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.json")]
    return subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def finish(proc, deadline):
    """Wait for a worker; kill it if the run's deadline passes."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("worker passed the run's deadline and was stopped", 3)
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}", 3)
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "boxaffine", "__init__.py")):
        fail(f"no package source under {os.path.join(ROOT, 'src')}", 2)
    declared = declared_metrics(args.trace)
    os.makedirs(RESULTS, exist_ok=True)

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS

    def probe():
        return finish(start_worker(args, env, setup_only=True), deadline)["setup_s"]

    # set-up samples come before and after the timed process, so that a slow
    # spell of the machine at either end moves the median less; a traced run
    # reports no set-up time
    probes = 0 if args.trace else SETUP_RUNS - 1
    setups = [probe() for _ in range(probes // 2)]
    result = finish(start_worker(args, env), deadline)
    setups += [result["setup_s"]] + [probe() for _ in range(probes - probes // 2)]

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared:
        fail(f"metrics differ from BENCHMARK.json: emitted {sorted(emitted.items())}, "
             f"declared {sorted(declared.items())}", 4)

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    passes = len(result["traced_pass_s"] if args.trace else result["pass_s"])
    how = {"setup_s": f"median of {SETUP_RUNS} processes", "peak_rss_mb": "peak of the process"}
    default = (f"median of {passes} traced passes" if args.trace
               else f"median of {passes} passes, per input")
    print(f"{args.workload} seed {args.seed}: {result['attempted']} operations, "
          f"{result['failed']} failed ({result['known_faults']} through the known "
          f"absolute-tolerance fault), correct {result['correct']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, m in sorted(metrics.items()):
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:13s} {how.get(name, default)}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
