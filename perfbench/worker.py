"""One workload in a fresh process: set-up, closed-loop timing, checks.

Started by ``run.py``; prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --spawned T [--trace] [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes on Linux), so
set-up time includes interpreter start and imports.  The loop keeps one
operation in flight and starts the next when the previous one returns,
until ``--seconds`` have passed (at least one operation).  With ``--trace``
the time is split into an untraced half and a traced half, both repeating
input 0, so trace overhead is measured on equal work in one process; the
spans go to ``perfbench/out``.
"""

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _import_statvac():
    src = ROOT / "src"
    if not (src / "statvac" / "__init__.py").is_file():
        sys.exit(f"statvac sources not found under {src}")
    sys.path.insert(0, str(src))
    import statvac
    if Path(statvac.__file__).resolve().parent != src / "statvac":
        sys.exit(f"imported statvac from {statvac.__file__}, not from {src}")


def _loop(workload, seconds, same_input=False, tracer=None):
    """Run operations for ``seconds``; operation n gets input n, or input 0
    with ``same_input``.  Returns latencies in s, failure messages, the
    number of failed operations and the elapsed time."""
    latencies, failures = [], []
    failed = 0
    start = time.perf_counter()
    while True:
        n = len(latencies)
        i = 0 if same_input else n
        t0 = time.perf_counter()
        problems = []
        try:
            if tracer is None:
                text = workload.run(i)
            else:
                tracer.op = n
                with tracer.span("op"):
                    text = workload.run(i)
        except Exception as exc:  # any exception is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        latencies.append(time.perf_counter() - t0)
        if not problems:
            try:
                problems = workload.check(text, i)
            except Exception as exc:  # so is a check that cannot read the output
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        failed += bool(problems)
        failures += [f"op {n}: {p}" for p in problems]
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return {"latencies": latencies, "failures": failures,
                    "failed": failed, "elapsed": elapsed}


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def runtime_provenance():
    import platform
    import numpy
    import scipy
    import statvac
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "statvac": statvac.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_statvac()
    import workloads
    from tracer import METRIC_UNITS, Tracer

    workload = workloads.WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        workload.setup()
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    OUT.mkdir(parents=True, exist_ok=True)
    workload.generate(args.seed, OUT)

    # A traced run repeats input 0 in both halves: the per-operation counts
    # then repeat exactly for a seed, and trace.overhead compares equal work.
    seconds = args.seconds / 2 if tracer else args.seconds
    result = {"setup_s": setup_s,
              "untraced": _loop(workload, seconds, same_input=bool(tracer))}
    if tracer is not None:
        with tracer:
            traced = _loop(workload, seconds, True, tracer)
        spans = OUT / f"spans_{args.workload}_seed{args.seed}.json"
        tracer.dump(spans)
        result.update({
            "traced": traced,
            "layers": tracer.layer_metrics(len(traced["latencies"])),
            "layer_units": METRIC_UNITS,
            "spans_file": str(spans.relative_to(ROOT)),
        })

    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "provenance": runtime_provenance(),
    })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
