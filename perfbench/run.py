"""Run a tabcop benchmark workload and print its metrics.

From the root of a tabcop checkout:

    python3 perfbench/run.py --workload small_tables --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run metadata.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics from a traced run
(spans are written to ``perfbench/out/``).  ``--workload all`` runs the
four workloads in turn.  See perfbench/README.md for what each metric
means.

Set-up time is measured on fresh worker processes, SETUP_RUNS of them,
and reported as their median; the last one also measures.  The package is
imported from ``src/`` of the checkout, so nothing needs installing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

WORKLOADS = ("cli_verbs", "small_tables", "sparse_large", "family_grids")
SETUP_RUNS = 3
#: Every run must end within 180 s; the worker gets what is left of this.
DEADLINE_S = 170.0
HERE = os.path.dirname(os.path.abspath(__file__))


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def start_worker(args, env, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    return proc, started


def finish(proc, deadline):
    """Wait for a worker and return its standard output; kill it on timeout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(args, env, spec):
    deadline = perf_counter() + DEADLINE_S
    setup_times, report = [], None
    runs = 1 if args.trace else SETUP_RUNS
    for i in range(runs):
        proc, started = start_worker(args, env, setup_only=i < runs - 1)
        ready = proc.stdout.readline().strip()
        setup_times.append(perf_counter() - started)
        out = finish(proc, deadline)
        if ready != "READY":
            raise BenchmarkError("worker did not finish its set-up")
        if i == runs - 1:
            report = json.loads(out.strip().splitlines()[-1])

    metrics = dict(report["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_times)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    verdict = report["verdict"]
    meta = dict(report["meta"], workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, setup_runs_s=setup_times,
                fail_ratio=verdict["failed"] / verdict["attempted"],
                unexpected_failures=verdict["unexpected"], failures=verdict["failures"])
    result = {
        "correct": verdict["unexpected"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tabcop", "__init__.py")):
        print("perfbench: src/tabcop not found; run from the root of a tabcop checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            run_workload(argparse.Namespace(**dict(vars(args), workload=workload)), env, spec)
        except BenchmarkError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
