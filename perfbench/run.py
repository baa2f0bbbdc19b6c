"""Benchmark of logmeasure, timed from outside the package.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mc_ibp, cauchy_paths, shipped_configs, exact_oracles (see
workloads.py for what each runs and why).  One process runs one workload as
a closed loop: one caller making one call at a time, pass after pass, for
about S seconds.  Every returned value is checked against an oracle.

--trace 0 reports the end-to-end metrics: setup_s (median over separate
processes of process start to inputs built), wall_s (median pass time),
peak_rss_mb and passed_ratio.  --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of layers.py from the traced ones.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Spans and run facts are written under
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: it keeps workers=2 within the
# machine's two cores and makes the per-probe factorizations far less noisy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("mc_ibp", "cauchy_paths", "shipped_configs", "exact_oracles")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "passed_ratio": "ratio"}
# Imports are only paid once per process, so setup_s is timed in fresh processes.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Put the checkout's own package on the path; exit 2 when there is none."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "logmeasure", "__init__.py")) or not os.path.isdir(
        os.path.join(ROOT, "configs")
    ):
        print(f"perfbench: {ROOT} holds no src/logmeasure and configs/ to benchmark", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import logmeasure

    if not os.path.abspath(logmeasure.__file__).startswith(src + os.sep):
        print(f"perfbench: imported logmeasure from {logmeasure.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def machine_facts() -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
    if libs:
        try:
            getter = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            getter.restype = ctypes.c_int
            threads = getter()
        except (OSError, AttributeError):
            threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"] + " (set)",
        "machine": platform.machine(),
    }


def time_setups(args, repeats: int) -> list[float]:
    """Process start to inputs built, in fresh processes, one after another."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with code {proc.returncode}")
    return samples


def run_passes(args, sizes):
    """Passes until the next one would overrun the run's length; returns (traced?, s, log) rows."""
    from tracing import Direct, Tracer
    from workloads import build

    plain = (build(args.workload, args.seed, sizes), Direct())
    tracer = Tracer() if args.trace else None
    traced = (build(args.workload, args.seed, sizes, tracer=tracer), tracer) if tracer else None
    min_passes = 2 if tracer else 3
    passes = []
    start = time.perf_counter()
    while True:
        use_trace = traced is not None and len(passes) % 2 == 1
        workload, ctx = traced if use_trace else plain
        ctx.begin_pass(len(passes))
        t0 = time.perf_counter()
        log = workload.run_pass(ctx)
        seconds = time.perf_counter() - t0
        ctx.end_pass()
        passes.append((use_trace, seconds, log))
        typical = statistics.median(s for _, s, _ in passes)
        if len(passes) >= min_passes and time.perf_counter() - start + typical > args.seconds:
            return passes, tracer


def layer_metrics(passes, tracer) -> dict:
    from layers import pass_metrics

    spans = tracer.spans
    self_s = tracer.self_times()
    per_pass = []
    for pass_id, (use_trace, _, log) in enumerate(passes):
        if use_trace:
            picked = [i for i, s in enumerate(spans) if s.pass_id == pass_id and s.name != "pass"]
            per_pass.append(pass_metrics([spans[i] for i in picked], [self_s[i] for i in picked], log))
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    z = [v for _, _, log in passes for v in log.mc_z]
    values["measures.mc.within_3se"] = sum(v <= 3.0 for v in z) / len(z) if z else 0.0
    traced_s = statistics.median(s for t, s, _ in passes if t)
    plain_s = statistics.median(s for t, s, _ in passes if not t)
    values["trace.overhead"] = traced_s / plain_s - 1.0
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from layers import UNITS
    from workloads import FULL, OUT_DIR, TINY, build

    sizes = TINY if args.tiny else FULL
    if args.setup_only:
        build(args.workload, args.seed, sizes)
        print("ready", flush=True)
        return 0

    setups = [] if args.trace else time_setups(args, SETUP_REPEATS)
    facts = machine_facts()
    passes, tracer = run_passes(args, sizes)

    attempted = sum(log.attempted for _, _, log in passes)
    failed = sum(sum(log.failed.values()) for _, _, log in passes)
    digests = sorted({log.digest for _, _, log in passes})
    correct = failed == 0 and len(digests) == 1
    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(s for _, s, _ in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    else:
        values = layer_metrics(passes, tracer)
        units = UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    errors = [e for _, _, log in passes for e in log.errors]
    for detail in errors[:10]:
        print(f"perfbench: failed check: {detail}", file=sys.stderr)
    if len(digests) > 1:
        print(f"perfbench: passes disagree on the result digest: {digests}", file=sys.stderr)

    print(f"machine: {json.dumps(facts)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes of "
          f"{[round(s, 3) for _, s, _ in passes]} s, setup samples {[round(s, 3) for s in setups]} s")
    print(f"digest {args.workload} seed {args.seed}: {' '.join(digests)}")
    print(f"checks: {attempted} attempted, {failed} failed, failed_ratio {failed / attempted:.6g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": facts,
        "digest": digests,
        "setup_s": setups,
        "pass_s": [s for _, s, _ in passes],
        "pass_traced": [t for t, _, _ in passes],
        "metrics": metrics,
        "spans": tracer.dump() if tracer else [],
    }
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
