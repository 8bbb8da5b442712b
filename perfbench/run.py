"""statvac benchmark: one workload per CLI mode, closed loop, checked outputs.

Run from the repository root:

    python3 perfbench/run.py                      # every workload
    python3 perfbench/run.py --workload fields_l48 --seed 3 --seconds 50 --trace 0

``BENCHMARK.json`` gates ``fields_l48`` and ``verify_l16``.
``small_sphere_l16`` runs by name and with ``all`` but is not gated: on a
shared host its run-to-run spread went past the largest bound the contract
allows (see ``baseline.json``).

Each workload runs in its own fresh worker process (``worker.py``), so its
peak RSS is its own.  The worker keeps one operation in flight (a closed
loop with one client) for ``--seconds`` and checks every output; BLAS
uses ``nproc`` threads.  ``setup_s`` is the median over
``SETUP_RUNS`` fresh processes of the time from process start until the
first operation can run.

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the
per-layer metrics of a traced run (see ``tracer.py``).  The table above the
last line gives units, the tail percentile with its sample count,
``failed_ratio`` and provenance; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Full results and spans
go to ``perfbench/out``.  The exit code is 0 when every operation passed
its checks, 1 when one failed, and 2 when the benchmark could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("fields_l48", "small_sphere_l16", "verify_l16")
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_RUNS = 3  # fresh processes whose set-up time gives the setup_s median
# Every worker of one workload must end within --seconds plus this margin,
# which covers the set-ups and the one operation that may overrun the loop.
DEADLINE_MARGIN_S = 120.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _nproc():
    return len(os.sched_getaffinity(0))


def _worker_env():
    """Environment that sets every BLAS pool to nproc threads."""
    threads = str(_nproc())
    return {**os.environ, **{var: threads for var in BLAS_VARS}}


def _worker(args, deadline):
    """Run worker.py with ``args`` and return its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tail(latencies_ms):
    """Highest percentile with at least 10 samples beyond it (the maximum
    when there are 10 or fewer samples): (value, percentile)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _end_to_end(main, base, deadline):
    """End-to-end metrics of an untraced worker, plus notes for the table."""
    lat_ms = [t * 1e3 for t in main["untraced"]["latencies"]]
    setups = [main["setup_s"]]
    for _ in range(SETUP_RUNS - 1):
        setups.append(_worker(base + ["--setup-only"], deadline)["setup_s"])
    tail, tail_pct = _tail(lat_ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail,
        "ops_per_s": len(lat_ms) / main["untraced"]["elapsed"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {"setup_s": f"median of {SETUP_RUNS} fresh processes",
             "op_tail_ms": f"p{tail_pct:.1f} of {len(lat_ms)} samples"}
    return metrics, END_TO_END, notes


def _per_layer(main):
    """Per-layer metrics of a traced worker, plus notes for the table."""
    p50 = statistics.median(main["untraced"]["latencies"]) * 1e3
    traced_p50 = statistics.median(main["traced"]["latencies"]) * 1e3
    metrics = {**main["layers"], "trace.overhead": traced_p50 / p50}
    units = main["layer_units"]
    notes = {"trace.overhead": f"traced op_p50_ms {traced_p50:.4g} over untraced "
                               f"{p50:.4g} ({len(main['traced']['latencies'])} and "
                               f"{len(main['untraced']['latencies'])} ops)"}
    return {m: metrics[m] for m in units}, units, notes


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (summary dict, lines to print)."""
    deadline = time.monotonic() + seconds + DEADLINE_MARGIN_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    main = _worker(base + (["--trace"] if trace else []), deadline)
    if trace:
        metrics, units, notes = _per_layer(main)
    else:
        metrics, units, notes = _end_to_end(main, base, deadline)
    loops = [main["untraced"]] + ([main["traced"]] if trace else [])
    attempted = sum(len(loop["latencies"]) for loop in loops)
    failed = sum(loop["failed"] for loop in loops)

    lines = [f"workload {name}  seed {seed}  {attempted} ops  "
             f"(closed loop, 1 op in flight, BLAS threads <= {_nproc()})"]
    for metric, value in metrics.items():
        lines.append(f"  {metric:<38} {value:>14.6g} {units[metric]:<6} "
                     f"{notes.get(metric, '')}".rstrip())
    lines.append(f"  {'failed_ratio':<38} {failed / attempted:>14.6g} "
                 f"{'-':<6} {failed} of {attempted} ops")
    lines.extend(f"  FAILED {f}" for loop in loops for f in loop["failures"])
    if trace:
        lines.append(f"  spans written to {main['spans_file']}")
    provenance = {"commit": _git_commit(), "nproc": _nproc(), "seed": seed,
                  "workload": name, "ops": attempted, "seconds": seconds,
                  **main["provenance"]}
    lines.append("  provenance " + json.dumps(provenance, sort_keys=True))

    OUT.mkdir(parents=True, exist_ok=True)
    suffix = "_trace" if trace else ""
    (OUT / f"result_{name}_seed{seed}{suffix}.json").write_text(json.dumps({
        "provenance": provenance, "metrics": metrics, "units": units,
        "worker": main}, indent=1))
    summary = {"attempted": attempted, "failed": failed,
               "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    return summary, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "statvac" / "__init__.py").is_file():
        print(f"statvac sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        try:
            summary, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines), flush=True)
        summaries[name] = summary

    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    if len(names) == 1:
        metrics = summaries[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, s in summaries.items() for m, v in s["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
