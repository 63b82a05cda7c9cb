"""Benchmark runner for zeno-limits.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]

Run it from the root of a checkout; it imports the package from the
checkout's ``src/`` and exits with code 2, printing no result, when that
is missing.  Workloads are described in ``workloads.py``; metric names,
units and bounds are read from ``BENCHMARK.json`` at the checkout root.

``--trace 0`` measures the end-to-end metrics.  Set-up (interpreter
start, ``import zeno_limits``, inputs built from the seed and written) is
timed in a fresh process, several times; this process then runs one
untimed warm-up operation and a closed loop of operations until
``--seconds`` have passed, checking every output.

``--trace 1`` runs the traced pass of ``tracing.py`` instead and reports
the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it report the operation count, quartiles, tail percentile, failure share,
thread settings and provenance; ``--record`` also appends all of that as
one JSON line to FILE, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"
#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: lifetime of one set-up process before it is killed, far above its ~1 s
SETUP_TIMEOUT_S = 120
#: settings pinned in the benchmark's environment before numpy loads.
#: With OpenBLAS's default of one thread per core, its spinning threads
#: contend with the sweep pool on a 2-core machine.  In alternating runs
#: the per-run op_s medians ranged over 38% (three-level) and 16%
#: (acceptance), against 8% and 4% with one BLAS thread; the D=64 sweep
#: ran 1.4x slower and every workload burned 1.5-2x the CPU time.
#: The sweep pool is pinned to one worker: with its default of two
#: threads on two cores, ten runs of the three-level sweep spread their
#: op_s medians over 43% and 60% (IQR/median) on a shared host.  With
#: one worker the operation was also faster (0.65-0.71 s against
#: 0.78-0.89 s in alternating runs).  The traced pass still times the
#: default pool (``experiments.run_sweep_s``).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "ZENO_LIMITS_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=Path, default=None,
                   help="append this run's full record as one JSON line")
    p.add_argument("--setup-only", type=Path, default=None, metavar="WORKDIR",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def blas_runtime() -> dict:
    """OpenBLAS builds loaded in this process and their runtime thread counts."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                found[Path(path).name] = {"config": config().decode(), "threads": threads()}
    return found


def git_sha() -> str | None:
    """HEAD's sha read from ``.git`` without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance() -> dict:
    import numpy
    import scipy

    from zeno_limits import experiments

    sources = sorted((SRC / "zeno_limits").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_runtime(),
        "pool_workers": experiments._worker_count(),
        "pinned_env": PINNED_ENV,
        "env": {k: os.environ.get(k) for k in
                ("ZENO_LIMITS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def time_setups(args, workdir: Path, repeats: int) -> list[float]:
    """Wall time of ``repeats`` fresh set-up processes, each rewriting the inputs.

    The wait blocks in ``waitpid``; ``subprocess.run(timeout=...)`` would
    poll every 50 ms and round the times up to that step.  A timer kills a
    set-up process that outlives ``SETUP_TIMEOUT_S``.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(workdir)]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdin=subprocess.DEVNULL) as proc:
            timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten values beyond it."""
    n = len(values)
    if n <= 10:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    if pct < 1:
        return None
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(args, workdir: Path, log) -> tuple[dict, int, int, dict]:
    import numpy as np
    import workloads

    setups = time_setups(args, workdir, SETUP_REPEATS)
    workload = workloads.open_workload(args.workload, args.seed, workdir)
    workload.warmup()
    rng = np.random.default_rng([args.seed, 2])
    walls, cpus = [], []
    failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            workload.operation()
            error = None
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        try:
            problems = [error] if error else workload.check(rng)
        except Exception:  # output missing or unreadable
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            log(f"operation {len(walls)} failed: " + "; ".join(problems[:5]))
        if time.perf_counter() >= deadline:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(walls),
        "op_cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    q1, q3 = quartiles(walls)
    tail = tail_percentile(walls)
    extra = {
        "operations": len(walls),
        "failed_frac": failed / len(walls),
        "op_s_quartiles": [q1, q3],
        "op_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "op_cpu_s_quartiles": list(quartiles(cpus)),
        "setup_s_all": setups,
    }
    log(f"{len(walls)} operations, {failed} failed (failed_frac {extra['failed_frac']:.3g}); "
        f"op_s median {metrics['op_s']:.6g}, quartiles {q1:.6g} {q3:.6g}"
        + ("" if tail is None else f", p{tail[0]} {tail[1]:.6g}"))
    return metrics, len(walls), failed, extra


def traced(args, workdir: Path, log) -> tuple[dict, int, int, dict]:
    import tracing
    import workloads

    workloads.write_inputs(args.workload, args.seed, workdir)
    workloads.open_workload(args.workload, args.seed, workdir).warmup()
    spans = OUT_ROOT / f"spans-{args.workload}-{args.seed}.jsonl"
    metrics, attempted, problems = tracing.traced_pass(args.workload, args.seed, workdir, spans)
    for problem in problems:
        log(f"traced check failed: {problem}")
    log(f"spans written to {spans}")
    return metrics, attempted, len(problems), {}


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zeno_limits" / "__init__.py").is_file():
        print(f"error: no zeno_limits package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.setup_only is not None:
        workloads.write_inputs(args.workload, args.seed, args.setup_only)
        return 0

    def log(msg):
        print(f"[{args.workload} seed {args.seed}] {msg}", flush=True)

    units = declared_metrics(args.trace)
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = traced if args.trace else measure
        values, attempted, failed, extra = run(args, workdir, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    prov = provenance()
    log("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if args.record is not None:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "provenance": prov, "extra": extra, **result}
        with args.record.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
