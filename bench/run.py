"""Benchmark command for the `fup` package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Runs one workload (see workloads.py) in a fresh worker process with BLAS
pinned to one thread, and prints as its last line one JSON object:
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones (wall_s, setup_s, peak_rss_mb); with --trace 1 the worker
wraps the layers' functions and the metrics are the per-layer ones. Set-up is
measured in SETUP_SAMPLES fresh processes and reported as their median.
--smoke runs every workload at a tiny size with its checks, traced.
Needs only the standard library and numpy; fup is imported from ../src.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_TIMEOUT_S = 8
WORKER_TIMEOUT_S = 140


def worker_env() -> dict:
    """The caller's environment with BLAS on one thread and the sweep's
    FUP_THREADS unset, so sweeps run on the program's default."""
    env = {k: v for k, v in os.environ.items() if k not in ("FUP_THREADS", "PYTHONPATH")}
    env.update({var: "1" for var in PINNED})
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    """Run worker.py to its end; its last stdout line is its result."""
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="see workloads.WORKLOADS")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    # a terminated benchmark stops its worker too (subprocess.run kills it on
    # any exception, SystemExit included)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    try:
        if args.smoke or args.trace:
            res = run_worker(["--smoke", "--seed", str(args.seed)] if args.smoke else
                             ["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", "1"],
                             WORKER_TIMEOUT_S)
            metrics = {name: metric(res["per_layer"][name], unit) for name, unit in units.items()}
        else:
            setup = [run_worker(["--workload", args.workload, "--seed", str(args.seed),
                                 "--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
                     for _ in range(SETUP_SAMPLES - 1)]
            res = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds)], WORKER_TIMEOUT_S)
            setup.append(res["setup_s"])
            metrics = {"wall_s": metric(statistics.median(res["round_s"]), "s"),
                       "setup_s": metric(statistics.median(setup), "s"),
                       "peak_rss_mb": metric(res["peak_rss_mb"], "MB")}
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for problem in res["problems"]:
        print(f"FAILED CHECK {problem}")
    print(f"rounds: {len(res['round_s'])}, round_s: "
          + ", ".join(f"{t:.3f}" for t in res["round_s"]))
    for name, times in res.get("report_s", {}).items():
        print(f"  {name:50s} " + " ".join(f"{t:.3f}" for t in times))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
