"""Run one mprobust benchmark workload and print its metrics.

    python3 perfbench/run.py --workload offline-interval --seed 0 --seconds 45 --trace 0

Run it from the repository root; it imports the package from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the environment, the instances, the sample counts
and any failures.  If every op behind a metric fails, that line goes to
standard error instead and the script exits with code 3.  Workloads are listed in ``BENCHMARK.json`` and
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_environment() -> None:
    """Default backend, one BLAS thread; must run before numpy is imported."""
    os.environ.pop("MPROBUST_BACKEND", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import networkx
    import numpy
    import scipy
    from mprobust import SolverConfig

    return {
        "backend": SolverConfig().backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def metric_units(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    try:
        import mprobust
    except ImportError as exc:
        print(f"perfbench: cannot import mprobust from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(mprobust.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: mprobust came from {mprobust.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    units = metric_units(bool(args.trace))

    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": environment()}
    run = workloads.Run(workload, args.seed)
    try:
        if args.trace:
            values, tracer, samples = workloads.traced(run, args.seconds)
            trace_file = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl.gz"
            tracer.write(trace_file)
            detail["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            values, samples = workloads.measure(run, args.seconds)
    except workloads.NoSamples as exc:
        detail.update(failed_ops=run.ops.failed, failures=run.ops.notes)
        print(json.dumps({"perfbench": detail}), file=sys.stderr)
        print(f"perfbench: {exc}; no result", file=sys.stderr)
        return 3
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    detail.update(samples=samples, instances=run.instances,
                  failed_ops=run.ops.failed, check_misses=run.ops.misses,
                  failures=run.ops.notes)
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": run.ops.misses == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
