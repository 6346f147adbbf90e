"""One round of one workload in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/worker.py --workload W --seed S
--t0 T [--setup-only] [--trace-out PATH]`` with ``src`` on ``PYTHONPATH``.
``T`` is the caller's ``time.monotonic()`` taken just before the process was
started, so ``setup_s`` runs from interpreter start-up to inputs built:
importing ``dbrackets`` and building the algebras, brackets, potentials and
tensors.  The round then runs every job once, one after another on this
thread, timing each call alone; results are serialized after the clock
stops.  A short reference loop is timed before the first job and, after
each job, once per half second of the job's time (at least once).  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

_T_IMPORT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402


NOT_COEFFICIENTS = ("text", "status", "sigma", "sigma_prime")
REFERENCE_ITERATIONS = 3000
# one reference probe per this many seconds of job time, at least one per job
PROBE_EVERY_S = 0.5


def integral_share(value, counts):
    """Count integral vs all coefficients in a serialized result."""
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, str) and k not in NOT_COEFFICIENTS:
                try:
                    c = Fraction(v)
                except ValueError:
                    continue
                counts[0] += c.denominator == 1
                counts[1] += 1
            else:
                integral_share(v, counts)
    elif isinstance(value, list):
        for v in value:
            integral_share(v, counts)


def reference_loop():
    """Time a fixed slice of exact arithmetic on dict-held values.

    The slice never touches the library, so its time follows only the speed
    the host grants this process; ``run.py`` scales a run's job times by
    the mean of its probes to correct them for that speed.
    """
    t = time.perf_counter()
    data = {}
    for i in range(REFERENCE_ITERATIONS):
        a = Fraction(i % 13 + 1, i % 7 + 2)
        c = a * Fraction(i % 5 - 2, 3) + a
        key = (i % 11, i % 3)
        data[key] = data.get(key, 0) + c
    return time.perf_counter() - t


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else _T_IMPORT

    import workloads  # imports dbrackets

    jobs = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace_out:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])

    results = []
    counts = [0, 0]
    refs = [reference_loop()]
    for job in jobs:
        error = None
        t = time.perf_counter()
        try:
            raw = job.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            raw = None
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t
        refs.extend(reference_loop() for _ in range(1 + int(seconds / PROBE_EVERY_S)))
        output = job.serialize(raw) if error is None else None
        del raw
        integral_share(output, counts)
        results.append({"name": job.name, "kind": job.kind, "seconds": seconds,
                        "error": error, "output": output})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "jobs": results,
              "ref_s": refs,
              "integral_share": counts[0] / counts[1] if counts[1] else None}
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        tracer.write(args.trace_out)
    sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
