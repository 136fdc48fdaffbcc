"""accspec benchmark: one workload as a closed loop in one fresh process.

    python3 bench/run.py --workload spectral-2d --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --trace 1     # every workload, a table

One client runs the workload's fixed operation list back to back, pass
after pass, until ``--seconds`` have elapsed (at least one pass). Each
operation is a timed call into the package followed by an untimed check
of its result. With ``--trace 0`` the end-to-end metrics are reported;
with ``--trace 1`` untraced and traced passes alternate and give the
per-layer metrics and the tracing overhead. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

The package is imported from ``src/`` of the checkout this file sits in;
without that tree the run exits with status 3 and prints no result.
Outputs and span files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("spectral-2d", "radial-sweep", "cli-curves")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s", "route_gap_max": "ratio"}


def pin_threads() -> None:
    """BLAS threads = cores, one dilation scale at a time in the CLI.

    Must run before numpy is imported.
    """
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores
    os.environ["ACC_SPECGRAM_THREADS"] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every operation, for the self-tests")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(ops, ledger, tracer=None) -> tuple[float, float]:
    """One pass over the operation list; (wall, cpu) of the timed calls."""
    from workloads import Check
    wall = cpu = 0.0
    for op in ops:
        c0, t0 = _cpu_s(), time.perf_counter()
        if tracer is not None:
            tracer.active = True
        try:
            result, error = op.run(), None
        except Exception as exc:  # counted as a failed operation
            result, error = None, exc
        finally:
            if tracer is not None:
                tracer.active = False
        wall += time.perf_counter() - t0
        cpu += _cpu_s() - c0
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            ledger.record(op.name, [Check(f"raised {type(error).__name__}",
                                          False)], None)
            continue
        try:
            checks, digest = op.verify(result)
        except Exception as exc:  # a malformed result fails its operation
            traceback.print_exception(exc, file=sys.stderr)
            checks, digest = [Check(f"verify raised {type(exc).__name__}",
                                    False)], None
        del result  # so the next operation's peak memory is its own
        ledger.record(op.name, checks, digest)
    return wall, cpu


def measure_setup(args, count: int) -> list[float]:
    """Process start to first timed operation, in fresh processes."""
    samples = []
    for _ in range(count):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size, "--setup-probe"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def run_workload(args) -> int:
    import accspec
    if Path(accspec.__file__).resolve().parent != SRC / "accspec":
        print(f"error: imported accspec from {accspec.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 3
    import envinfo
    import tracing
    import workloads

    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, args.size, workdir)
        if args.setup_probe:
            print(repr(time.monotonic()))
            return 0
        ledger = workloads.Ledger()
        if args.trace:
            # untraced and traced passes alternate, so warm-up and drift
            # fall on both sides; per-layer values come from the last one
            untraced, traced = [], []
            start = time.perf_counter()
            while not traced or time.perf_counter() - start < args.seconds:
                untraced.append(run_pass(ops, ledger)[0])
                tracer = tracing.Tracer()
                with tracer:
                    traced.append(run_pass(ops, ledger, tracer)[0])
            values = tracer.metrics()
            values["trace.wall_s"] = statistics.median(traced)
            values["trace.overhead_s"] = (statistics.median(traced)
                                          - statistics.median(untraced))
            tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
            units = tracing.METRICS
            passes = len(untraced) + len(traced)
        else:
            # set-up probes are spread over the run, between passes, so
            # that they sample the same machine load as the passes
            walls, cpus, setup = [], [], measure_setup(args, 1)
            start = time.perf_counter()
            while not walls or time.perf_counter() - start < args.seconds:
                wall, cpu = run_pass(ops, ledger)
                if not walls:
                    # one run of the operation list from a fresh process;
                    # repeats only add heap-reuse history on top
                    peak_rss = _peak_rss_mb()
                walls.append(wall)
                cpus.append(cpu)
                setup += measure_setup(args, 1)
            setup += measure_setup(args, SETUP_PROBES - len(setup))
            values = {
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "peak_rss_mb": peak_rss,
                "setup_s": statistics.median(setup),
                "route_gap_max": ledger.gap_max,
            }
            units = END_TO_END
            passes = len(walls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={passes} ops_per_pass={len(ops)}")
    print("# env " + json.dumps(envinfo.describe(ROOT), sort_keys=True))
    print(f"# ops_total={ledger.attempted} ops_failed={ledger.failed} "
          f"unexpected_failures={ledger.unexpected} correct={ledger.correct}")
    for name, checks in sorted(ledger.failures.items()):
        print(f"# failed op {name}: {', '.join(checks)}")
    if not args.trace:
        print(f"# wall_s samples: {', '.join(f'{w:.4f}' for w in walls)}")
        print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        note = ""
        if value is None:
            value, note = 0.0, "  (absent: not in this version of the package)"
        print(f"{name} = {value:.6g} {unit}{note}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; one table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"error: {workload} exited with {done.returncode}",
                  file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(f"\n{'workload':<14} {'metric':<40} {'value':>14}  unit")
    for workload, res in results.items():
        print(f"{workload:<14} {'ops_total':<40} {res['attempted']:>14}  count")
        print(f"{workload:<14} {'ops_failed':<40} {res['failed']:>14}  count")
        for name, m in res["metrics"].items():
            print(f"{workload:<14} {name:<40} {m['value']:>14.6g}  {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "accspec" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 3
    if args.workload == "all":
        return run_all(args)
    pin_threads()
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
