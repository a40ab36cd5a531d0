"""Benchmark for reachnet: end-to-end and per-layer metrics on two workloads.

Run from the repository root:

    python3 bench/run.py --workload affine-distributed --seed 1 --seconds 50 --trace 0

With ``--trace 0`` it prints ``solve_s``, ``setup_s`` and ``peak_rss_mb``;
with ``--trace 1`` the per-layer metrics of the traced passes and the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread per process: numpy's OpenBLAS would otherwise start one per CPU,
# and the setup probes inherit this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh processes timed from start to the first solve; setup_s is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
READY = "ready"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Put this checkout's ``src`` first on the path; refuse to run on
    anything else."""
    if not (SRC / "reachnet" / "__init__.py").is_file():
        sys.exit(f"bench: no reachnet sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import reachnet
    if Path(reachnet.__file__).resolve().parent != SRC / "reachnet":
        sys.exit(f"bench: imported reachnet from {reachnet.__file__}, not {SRC}")


def setup(workload: str, seed: int) -> list:
    """Everything before the first solve: import reachnet (and with it
    scipy), generate the instances and build their inputs.  Returns the
    instances."""
    import_program()
    import workloads
    if workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    instances = workloads.make(workload, seed)
    for inst in instances:
        workloads.build(workload, inst)
    return instances


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its being ready to solve."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != READY or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def answer_of(workload: str, out) -> list:
    """The reported start sets as plain data."""
    answer = []
    for s in (sol.start_states for sol in out[0]):
        labels = tuple(s.axes.labels)
        if workload == "affine-distributed":
            p = s.poly()
            answer.append((labels, p.A_ineq, p.b_ineq, p.A_eq, p.b_eq))
        else:
            answer.append((labels, {tuple(row) for row in s.table().points}))
    return answer


class Pass:
    """One solve of every instance, with its answers checked."""

    def __init__(self):
        self.times = []
        self.raised = 0
        self.wrong = 0
        self.traces = []  # IterationTrace per instance, traced passes only
        self.metrics = {}  # per-layer metrics, traced passes only

    @property
    def solve_s(self) -> float:
        return sum(self.times)


def run_pass(workload, instances, refs, tracer=None) -> Pass:
    import checks
    import workloads
    if tracer is not None:
        import tracing
    problems = [workloads.build(workload, inst) for inst in instances]
    result = Pass()
    for problem, ref in zip(problems, refs):
        context = contextlib.nullcontext() if tracer is None else tracing.traced(tracer)
        gc.collect()  # every solve starts from the same collector state
        t0 = time.perf_counter()
        try:
            with context:
                out = workloads.solve(problem)
        except Exception:
            result.times.append(time.perf_counter() - t0)
            result.raised += 1
            traceback.print_exc(file=sys.stderr)
            continue
        result.times.append(time.perf_counter() - t0)
        if tracer is not None:
            result.traces.append(out[1])
        errors = checks.check(workload, ref, answer_of(workload, out))
        if errors:
            result.wrong += 1
            print(f"bench: wrong answer: {errors[:3]}", file=sys.stderr)
    return result


def measure(args, instances) -> tuple[list, list]:
    """Alternate untraced and (with --trace 1) traced passes until
    ``--seconds`` have gone by; at least one of each."""
    import checks
    import numpy as np
    rng = np.random.default_rng([args.seed, 7])
    refs = [checks.reference(args.workload, inst, rng) for inst in instances]
    if args.trace:
        import tracing
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(run_pass(args.workload, instances, refs))
        if args.trace:
            tracer = tracing.Tracer()
            p = run_pass(args.workload, instances, refs, tracer)
            p.metrics = tracing.layer_metrics(tracer.spans, p.traces)
            traced.append(p)
        if time.perf_counter() >= deadline:
            return plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(READY, flush=True)
        return 0

    instances = setup(args.workload, args.seed)
    setup_samples = []
    if not args.trace:
        setup_samples = [probe_setup(args.workload, args.seed)
                         for _ in range(SETUP_PROBES)]
    plain, traced = measure(args, instances)
    passes = plain + traced
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.raised + p.wrong for p in passes)
    # The first pass warms caches and the allocator: it is checked and
    # counted, but its time is left out.
    solve_s = statistics.median(p.solve_s for p in plain[1:] or plain)

    if args.trace:
        import tracing
        metrics = tracing.summarize([p.metrics for p in traced])
        metrics["trace.overhead_s"] = (
            statistics.median(p.solve_s for p in traced) - solve_s)
        units = {name: tracing.unit(name) for name in metrics}
    else:
        metrics = {
            "solve_s": solve_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    print(f"bench: {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, pass times "
          f"{[round(p.solve_s, 3) for p in plain]}", file=sys.stderr)
    print(json.dumps({
        "correct": all(p.wrong == 0 for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
