"""rslv-lab benchmark: one seeded workload, timed end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload grid-fbm-d2 --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py and described in BENCHMARK.json.  Every
run is closed-loop: one process, one caller, each call starting after the
previous one finished, repeated with identical inputs for ``--seconds``
(at least three calls).

``--trace 0`` reports the end-to-end metrics with tracing off:
  setup_s      median over fresh processes of start -> imports, input
               generation and a tiny warm-up call done
  wall_s       median time of one public entry call
  peak_rss_mb  ru_maxrss of this process
and prints ``fail_ratio``, ``heat_l1`` (grid-fbm-d2) and the determinism
digest beside them.  ``--trace 1`` alternates untraced and traced calls and
reports the per-layer metrics of layers.py plus ``trace_overhead_ratio``;
its spans are written to ``.bench_run/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A call fails on a
nonzero exit code, an exception, a failed output check, or a digest that
differs from the run's first call.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
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
RUN_DIR = ROOT / ".bench_run"
WORKLOAD_NAMES = ("grid-fbm-d2", "grid-rslv-d5", "particles-rslv", "condition-c")
SETUP_REPEATS = 3
MIN_CALLS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_environment() -> int:
    """Single-threaded BLAS and at most two program workers; must precede numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ["RSLV_LAB_THREADS"] = str(min(2, nproc))
    return nproc


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs reduced problems, for the smoke tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up and exit; used to time set-up in fresh processes")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _environment(nproc: int) -> dict:
    import numpy
    import scipy
    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    env = {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    env.update({var: os.environ[var] for var in BLAS_VARS + ("RSLV_LAB_THREADS",)})
    return env


def _setup(args, workdir: Path):
    """Inputs for the run, after a tiny warm-up call of the same workload."""
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    warm_dir = workdir / "warmup"
    warm_dir.mkdir(parents=True)
    warm = cls(args.seed, "tiny", str(warm_dir))
    warm.reset()
    code = warm.call()
    if not warm.check(code).ok:
        raise RuntimeError(f"warm-up call of {args.workload} failed its checks")
    main_dir = workdir / "main"
    main_dir.mkdir()
    return cls(args.seed, args.size, str(main_dir))


def _time_setup(args) -> list[float]:
    """Wall time of SETUP_REPEATS fresh processes that only set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return times


def _one_call(wl, tracer, targets, root):
    """Time one call; returns (seconds, Outcome)."""
    from workloads import Outcome
    wl.reset()
    installed = tracer.installed(targets) if tracer else contextlib.nullcontext()
    error = None
    with installed:
        t0 = time.perf_counter()
        try:
            with tracer.span(root) if tracer else contextlib.nullcontext():
                code = wl.call()
        except SystemExit as exc:          # argparse inside cli.main
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:                  # counted as a failed call, run goes on
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
    if error is not None:
        sys.stderr.write(error)
        return wall, Outcome(problems=["exception: " + error.strip().splitlines()[-1]])
    try:
        return wall, wl.check(code)
    except Exception:                      # unreadable or missing outputs
        error = traceback.format_exc()
        sys.stderr.write(error)
        return wall, Outcome(problems=["check failed: " + error.strip().splitlines()[-1]])


def _run_calls(wl, seconds: float, trace: bool):
    """Closed loop; with tracing, odd-numbered calls are traced."""
    import layers
    from tracer import Tracer
    tracer = Tracer() if trace else None
    records = []
    deadline = time.perf_counter() + seconds
    while len(records) < MIN_CALLS or time.perf_counter() < deadline:
        traced = trace and len(records) % 2 == 1
        wall, outcome = _one_call(wl, tracer if traced else None, layers.TARGETS, layers.ROOT)
        records.append((wall, outcome, traced))
    first = next((o.digest for _, o, _ in records if o.ok), None)
    for i, (_, outcome, _) in enumerate(records):
        if outcome.ok and outcome.digest != first:
            outcome.problems.append(f"call {i}: outputs differ from the run's first call")
    for i, (_, outcome, _) in enumerate(records):
        for problem in outcome.problems:
            print(f"FAILED call {i}: {problem}")
    return records, tracer


def _end_to_end(args, wl, setup_times) -> dict:
    records, _ = _run_calls(wl, args.seconds, trace=False)
    walls = [w for w, _, _ in records]
    failed = sum(not o.ok for _, o, _ in records)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    print(f"setup_s     = {metrics['setup_s'][0]:.4f} s (median of {len(setup_times)} "
          f"fresh-process set-ups: {', '.join(f'{t:.3f}' for t in setup_times)})")
    print(f"wall_s      = {metrics['wall_s'][0]:.4f} s (median of {len(walls)} calls, "
          f"min {min(walls):.4f}, max {max(walls):.4f})")
    print(f"peak_rss_mb = {rss:.1f} MiB")
    print(f"fail_ratio  = {failed / len(records):g} ({failed} failed / "
          f"{len(records)} attempted)")
    heat = [o.heat_l1 for _, o, _ in records if o.heat_l1 is not None]
    if heat:
        print(f"heat_l1     = {statistics.median(heat):.6g} L1 (median of {len(heat)} calls)")
    print(f"digest      = {records[0][1].digest}")
    if records[0][1].notes:
        print(records[0][1].notes)
    return _result(records, metrics)


def _per_layer(args, wl) -> dict:
    import layers
    from rslv_lab.condition_c import worker_count
    records, tracer = _run_calls(wl, args.seconds, trace=True)
    traced = [(w, o) for w, o, t in records if t]
    plain = [w for w, _, t in records if not t]
    values = layers.per_layer(tracer, len(traced), worker_count())
    values["cli.bytes_written"] = statistics.fmean(o.bytes_written for _, o in traced)
    values["fokker_planck.steps"] = statistics.fmean(o.steps for _, o in traced)
    values["trace_overhead_ratio"] = (
        statistics.median(w for w, _ in traced) / statistics.median(plain) - 1.0)
    RUN_DIR.mkdir(exist_ok=True)
    spans_path = RUN_DIR / f"trace-{args.workload}.jsonl"
    tracer.dump(spans_path)
    print(f"traced {len(traced)} of {len(records)} calls; spans in {spans_path}")
    if tracer.absent:
        print("absent (not wrapped): " + ", ".join(tracer.absent))
    print(f"{'span':45s} {'calls/call':>10s} {'self_s/call':>12s}")
    for span in layers.SPANS:
        if values[f"{span}.calls"]:
            print(f"{span:45s} {values[f'{span}.calls']:10.1f} "
                  f"{values[f'{span}.self_s']:12.6f}")
    metrics = {name: (values[name], unit) for name, (unit, _) in layers.METRICS.items()}
    return _result(records, metrics)


def _result(records, metrics) -> dict:
    failed = sum(not o.ok for _, o, _ in records)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    args = _parse(argv)
    nproc = _pin_environment()
    if not (SRC / "rslv_lab" / "__init__.py").is_file():
        print(f"error: no rslv_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            _setup(args, workdir)
            return 0
        setup_times = [] if args.trace else _time_setup(args)
        import rslv_lab
        if Path(rslv_lab.__file__).resolve().parent != (SRC / "rslv_lab").resolve():
            print(f"error: imported rslv_lab from {rslv_lab.__file__}", file=sys.stderr)
            return 2
        print("env " + json.dumps(_environment(nproc)))
        wl = _setup(args, workdir)
        print(f"workload {args.workload} seed {args.seed} size {args.size}: "
              + json.dumps(wl.cfg))
        result = _per_layer(args, wl) if args.trace else _end_to_end(args, wl, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
