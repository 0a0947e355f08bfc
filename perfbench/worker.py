"""One benchmark worker process: set up, say READY, then measure.

Started by ``run.py``, which times each worker from process start to the
READY line (the set-up time).  Set-up is ``import tabcop``, generating
the workload's cases from the seed, and one warm-up call per public entry
point.  With ``--setup-only`` the worker exits there; otherwise it runs
whole passes over the cases, one operation at a time with no other
thread (a closed loop with one caller), checks every output, and prints
one JSON line with its measurements.

Operation times are scaled to the host's nominal speed (``speed.py``):
the reference loop runs whenever CHUNK_S of operation time has passed
since it last ran, and each operation's time is scaled by the median loop
time in a window around it.  Each case then stands at the median of its
scaled times over the run, and the metrics describe one pass of cases at
those times: the percentiles are Harrell-Davis estimates, weighted means
of all the ordered case times, so that they move smoothly when cases of
neighbouring cost swap places, and the throughput is cases per second of
such a pass.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy.stats
import speed
import tabcop
import tracing
import workloads

#: Candidate tail percentiles, highest first.  A workload reports the
#: highest one that leaves at least TAIL_BEYOND of its guaranteed samples
#: beyond it, so the choice never depends on how fast a run was.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 60.0, 50.0)
TAIL_BEYOND = 10
PROBE_REPEATS = 3
#: Operation time between two runs of the reference loop; it costs about
#: 12 ms, so this keeps its overhead near 5%.
CHUNK_S = 0.25


def tail_level(n_samples):
    for level in TAIL_LEVELS:
        if n_samples * (100.0 - level) / 100.0 >= TAIL_BEYOND:
            return level
    raise ValueError(f"{n_samples} samples leave no tail percentile")


def run_case(case):
    """Run one operation; return its start, duration, value and error."""
    t0 = perf_counter()
    try:
        value, error = case.op(), None
    except Exception as exc:  # a failed operation is recorded, not fatal
        value, error = None, exc
    return t0, perf_counter() - t0, value, error


def run_pass(cases, outcomes, samples):
    for case in cases:
        _t0, took, value, error = run_case(case)
        samples.append(took)
        outcomes.append((case, value, error))


def judge(workload, outcomes):
    """Count failures; only ones outside the known defects are incorrect."""
    failed, unexpected, mismatches, failures = 0, 0, 0, {}
    for case, value, error in outcomes:
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
        else:
            try:
                problems = case.check(value)
            except Exception as exc:  # a malformed output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if not problems:
            continue
        failed += 1
        mismatches += any(p.startswith(workloads.ORACLE_MISMATCH) for p in problems)
        if case.case_id not in workload.known_defects:
            unexpected += 1
        failures.setdefault(case.case_id, problems[:3])
    return {"attempted": len(outcomes), "failed": failed, "unexpected": unexpected,
            "oracle_mismatch": mismatches, "failures": failures}


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of ``values``.

    A mean of all the order statistics, weighted by a Beta((n+1)q,
    (n+1)(1-q)) distribution over their ranks.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    edges = scipy.stats.beta.cdf(np.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1.0 - q))
    return float(np.dot(np.diff(edges), ordered))


def timing_metrics(samples, case_ids, pass_ids, level):
    """The timing metrics of operation times in seconds.

    ``pass_ids`` are the case ids of one pass.  Each case stands at the
    median of its times, so no single slow or fast run of a case moves a
    metric, and the metrics do not depend on where in a pass the run
    stopped.
    """
    by_case = {}
    for case_id, seconds in zip(case_ids, samples):
        by_case.setdefault(case_id, []).append(seconds)
    typical = {case_id: statistics.median(times) for case_id, times in by_case.items()}
    one_pass = [typical[case_id] for case_id in pass_ids]
    return {
        "call_p50_ms": hd_quantile(one_pass, 0.5) * 1e3,
        "call_tail_ms": hd_quantile(one_pass, level / 100.0) * 1e3,
        "cases_per_s": len(one_pass) / math.fsum(one_pass),
    }


def measure(workload, seconds):
    """Whole passes until ``seconds`` have passed and min_passes have run."""
    outcomes, case_ids, raw, mids, passes = [], [], [], [], 0
    start = perf_counter()
    speed_log = speed.SpeedLog(start)
    speed_log.sample()
    since_sample = 0.0
    while passes < workload.min_passes or perf_counter() - start < seconds:
        for case in workload.cases:
            t0, took, value, error = run_case(case)
            outcomes.append((case, value, error))
            case_ids.append(case.case_id)
            raw.append(took)
            mids.append(t0 - start + took / 2.0)
            since_sample += took
            if since_sample >= CHUNK_S:
                speed_log.sample()
                since_sample = 0.0
        passes += 1
    wall = perf_counter() - start
    speed_log.sample()
    scaled = [took * speed_log.factor(mid) for took, mid in zip(raw, mids)]
    verdict = judge(workload, outcomes)
    level = tail_level(workload.min_passes * len(workload.cases))
    pass_ids = [case.case_id for case in workload.cases]
    metrics = timing_metrics(scaled, case_ids, pass_ids, level)
    metrics.update({
        "ok_ratio": 1.0 - verdict["failed"] / verdict["attempted"],
        "peak_rss_mb": peak_rss_mb(),
    })
    loop_ms = [v * 1e3 for v in speed_log.values]
    run = {"passes": passes, "samples": len(raw), "wall_s": wall,
           "tail_percentile": level,
           "raw": timing_metrics(raw, case_ids, pass_ids, level),
           "reference_loop_ms": {"nominal": speed.REFERENCE_S * 1e3,
                                 "median": statistics.median(loop_ms),
                                 "min": min(loop_ms), "max": max(loop_ms),
                                 "samples": len(loop_ms)}}
    return metrics, verdict, run


def probe_ms(code):
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def measure_traced(workload, out_path):
    """Untraced pass, traced pass, and the per-layer metrics from the spans.

    The traced pass's wall time is the base of the share metrics.  The
    CLI verbs are traced in-process, so their base is instead the wall
    time of one pass of the CLI processes a user runs, and the untraced
    in-process pass gives the tracing overhead.
    """
    def timed_pass(cases, outcomes):
        start = perf_counter()
        run_pass(cases, outcomes, samples)
        return perf_counter() - start

    outcomes, traced_outcomes, samples = [], [], []
    traced_cases = workload.traced_cases()
    user_wall = None
    if traced_cases is not workload.cases:
        user_wall = timed_pass(workload.cases, outcomes)
    untraced_wall = timed_pass(traced_cases, outcomes)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall = timed_pass(traced_cases, traced_outcomes)
    finally:
        tracer.uninstall()
    user_wall = user_wall or traced_wall
    verdict = judge(workload, outcomes + traced_outcomes)
    interp_ms = probe_ms("pass")
    metrics = tracing.layer_metrics(tracer.spans, user_wall)
    metrics.update({
        "feasibility.oracle_mismatch": judge(workload, traced_outcomes)["oracle_mismatch"],
        "cli.interp_ms": interp_ms,
        "cli.import_ms": probe_ms("import tabcop") - interp_ms,
        "trace.overhead": traced_wall / untraced_wall - 1.0,
    })
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "spans": tracer.spans}, fh)
    run = {"passes": 1, "samples": len(samples), "wall_s": user_wall,
           "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
           "spans": len(tracer.spans), "trace_file": out_path}
    return metrics, verdict, run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return
    if args.trace:
        out_path = os.path.join("perfbench", "out", f"trace-{args.workload}-seed{args.seed}.json")
        metrics, verdict, run = measure_traced(workload, out_path)
    else:
        metrics, verdict, run = measure(workload, args.seconds)
    meta = {
        "ipf_backend": tabcop.IPF_BACKEND,
        "tabcop_file": os.path.relpath(tabcop.__file__),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "sizes": workload.sizes,
        "cases_per_pass": len(workload.cases),
        **run,
    }
    print(json.dumps({"metrics": metrics, "verdict": verdict, "meta": meta}), flush=True)


if __name__ == "__main__":
    main()
