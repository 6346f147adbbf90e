"""The benchmark's command: one workload, one seed, one run.

    python3 perfbench/run.py --workload word-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src``.

A run is a closed loop of rounds, one at a time on one thread: each round
is a fresh ``worker.py`` process that imports the library, builds the
workload's inputs from the seed, and runs the workload's fixed job list
once.  Rounds start one after another while the next one is expected to
end no later than half a round after ``--seconds``, so a run measures
whole rounds only and takes about ``--seconds`` however long a round is.
Before them, the run starts the worker several times for set-up alone (the
first start, which may write bytecode caches, is discarded).  Every round's
outputs must be identical; the first round's are checked against the
independent oracle (``checks.py``), outside all timed regions.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics: each job's median time over the rounds, summed over
the jobs of the metric (all jobs for ``wall_s``, those whose verdict holds
for ``certify_s``, counterexamples for ``refute_s``); the median peak RSS of
the round processes; and the median of every set-up sample.  Job times are
corrected for the host's speed: the machine this runs on shares its cores
with other guests and runs up to 80 % slower for tens of seconds at a time,
so all job times of a run are scaled by ``REFERENCE_S`` over the mean time
of a fixed reference loop that every round probes between its jobs, about
twice per second of job time (``worker.reference_loop``).  The uncorrected figures
are printed alongside and kept in the results file.

With ``--trace 1`` untraced and traced rounds alternate,
and the metrics are the per-layer ones of the traced rounds plus
``trace.overhead_ratio``, traced over untraced wall time.  Both kinds of run
also write their metrics to ``perfbench/out/results-<workload>.json``, and
traced rounds write their spans to ``perfbench/out/trace-*.json.gz``.

Exit codes: 0 when every check passed, 1 when a check failed (the result
line then says ``"correct": false``), 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import canon  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
# the reference loop's time (worker.reference_loop) in a fast spell of the
# 2-core machine the benchmark was defined on; corrected times are seconds
# at that host speed
REFERENCE_S = 0.020
WORKER_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "certify_s": "s", "refute_s": "s",
              "peak_rss_mb": "MB"}


def per_layer_units():
    units = {m: "count" for m in tracer.CALLS}
    units.update({f"{layer}.self_s": "s" for layer in tracer.SELF_TIMES})
    units.update({
        "bimodule.act.terms_out": "count",
        "dbracket.eval.cache_hit_ratio": "ratio",
        "dbracket.eval.cache_entries": "count",
        "dbracket.jac.cache_hit_ratio": "ratio",
        "dbracket.jac.cache_entries": "count",
        "dbracket.sweep.triples_built": "count",
        "dbracket.sweep.triples_checked": "count",
        "repspace.sweep.tuples_checked": "count",
        "repspace.word_cache.entries": "count",
        "trace.overhead_ratio": "ratio",
    })
    return units


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, *, setup_only=False, trace_out=None):
    """Run one worker process to its end and return its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    extra = ["--setup-only"] if setup_only else []
    if trace_out is not None:
        extra += ["--trace-out", str(trace_out)]
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0)] + extra
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_times(records, corrected=True):
    """Job-wise medians over rounds, summed per class.

    Taking medians job by job moves the result less for a slow spell during
    one job of one round than a median of whole-round sums would.  With
    ``corrected`` every time is first scaled by REFERENCE_S over the mean of
    all the run's reference probes, which cancels a slow spell of the host
    that lasts the whole run.
    """
    jobs = records[0]["jobs"]
    factor = 1.0
    if corrected:
        factor = REFERENCE_S / statistics.mean(p for r in records for p in r["ref_s"])
    med = [factor * statistics.median(r["jobs"][k]["seconds"] for r in records)
           for k in range(len(jobs))]
    return {"wall_s": sum(med),
            "certify_s": sum(m for m, j in zip(med, jobs) if j["kind"] == "certify"),
            "refute_s": sum(m for m, j in zip(med, jobs) if j["kind"] == "refute"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records)}


def outputs_digest(record):
    return canon.digest([[j["name"], j["error"], j["output"]]
                         for j in record["jobs"]])


def save_results(workload, section, payload):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-{workload}.json"
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        data = {}
    data[section] = payload
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dbrackets" / "__init__.py").is_file():
        print(f"error: the library source is missing ({SRC / 'dbrackets'}); "
              f"run from the root of a checkout", file=sys.stderr)
        return 2
    w, seed = args.workload, args.seed

    try:
        spawn(w, seed, setup_only=True)  # warm-up: bytecode caches
        setups = [spawn(w, seed, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        plain, traced = [], []
        begin = time.monotonic()
        while True:
            started = time.monotonic()
            if args.trace and len(traced) < len(plain):
                OUT.mkdir(exist_ok=True)
                path = OUT / f"trace-{w}-seed{seed}-round{len(traced)}.json.gz"
                traced.append(spawn(w, seed, trace_out=path))
            else:
                plain.append(spawn(w, seed))
            now = time.monotonic()
            paired = not args.trace or len(traced) == len(plain)
            # start another round only if it would end near the deadline
            if paired and now + (now - started) / 2 >= begin + args.seconds:
                break
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rounds = plain + traced
    correct, failed_per_round, problem = True, 0, None
    try:
        failed_per_round = checks.check_round(w, seed, plain[0]["jobs"])
        ref = outputs_digest(plain[0])
        for k, rec in enumerate(rounds[1:], 1):
            checks.expect(outputs_digest(rec) == ref,
                          f"round {k} outputs differ from round 0")
    except checks.CheckFailed as exc:
        correct, problem = False, str(exc)
    attempted = sum(len(r["jobs"]) for r in rounds)
    failed = failed_per_round * len(rounds)

    if args.trace:
        units = per_layer_units()
        values = {m: statistics.median(r["layers"][m] for r in traced)
                  for m in units if m != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = (
            median_times(traced)["wall_s"] / median_times(plain)["wall_s"])
        section = "per_layer"
    else:
        units = END_TO_END
        values = median_times(plain)
        values["setup_s"] = statistics.median(setups + [r["setup_s"] for r in plain])
        section = "end_to_end"
    metrics = {m: {"value": values[m], "unit": units[m]} for m in units}

    raw = {} if args.trace else median_times(plain, corrected=False)
    shares = [r["integral_share"] for r in plain if r["integral_share"] is not None]
    save_results(w, section, {
        "seed": seed, "seconds": args.seconds, "rounds": len(plain),
        "traced_rounds": len(traced), "correct": correct,
        "attempted": attempted, "failed": failed,
        "integral_output_share": shares[0] if shares else None,
        "setup_samples_s": setups + [r["setup_s"] for r in plain],
        "uncorrected": raw,
        "job_seconds": [[j["seconds"] for j in r["jobs"]] for r in plain],
        "reference_seconds": [r["ref_s"] for r in plain],
        "traced_job_seconds": [[j["seconds"] for j in r["jobs"]] for r in traced],
        "metrics": metrics})
    for m, v in metrics.items():
        note = f" (uncorrected {raw[m]:.6g})" if m in raw and m != "peak_rss_mb" else ""
        print(f"{w} {m} = {v['value']:.6g} {v['unit']}{note}")
    if problem:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
