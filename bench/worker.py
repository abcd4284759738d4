"""The workload process: set up, time whole rounds of reports, check them.

Started by run.py with BLAS pinned to one thread. Prints one JSON object on
standard output; progress and problems go to standard error.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import fup  # noqa: E402

if Path(fup.__file__).resolve().parent != ROOT / "src" / "fup":
    sys.exit(f"fup imported from {fup.__file__}, not from this checkout's src/")

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = BENCH / "out"
MAX_PROBLEMS_SHOWN = 20


def run_round(ops, ctx, rec, index):
    """Run every operation once; returns [(op, output or exception, seconds)]."""
    results = []
    for op in ops:
        if rec is not None:
            rec.report = f"{index}:{op.name}"
        t0 = time.perf_counter()
        try:
            out = op.run(ctx)
        except Exception as err:  # a failed report counts as failed, the run goes on
            traceback.print_exc()
            out = err
        results.append((op, out, time.perf_counter() - t0))
        ctx[op.name] = out
    return results


def measure(ops, seconds, work, rec, one_round=False):
    """Whole rounds until the next one would end past `seconds` (at least one)."""
    times, rounds = [], []
    start = time.perf_counter()
    while True:
        ctx = {"dir": work / f"round{len(times)}"}
        ctx["dir"].mkdir(parents=True)
        if rec is not None:
            rec.phase, rec.enabled = len(times), True
        results = run_round(ops, ctx, rec, len(times))
        if rec is not None:
            rec.enabled = False
        times.append(sum(dt for _, _, dt in results))
        rounds.append((ctx, results))
        if one_round or time.perf_counter() - start + statistics.median(times) > seconds:
            return times, rounds


def memory_round(ops, work, rec):
    """One more round with tracemalloc on, for the allocation peaks only;
    the timed rounds run without it, since it slows small numpy calls."""
    ctx = {"dir": work / "memory"}
    ctx["dir"].mkdir(parents=True)
    tracemalloc.start()
    rec.phase, rec.enabled = "memory", True
    try:
        run_round(ops, ctx, rec, "memory")
    finally:
        rec.enabled = False
        tracemalloc.stop()


def check(rounds):
    """(attempted, failed, problems) over every operation of every round."""
    attempted, failed, problems = 0, 0, []
    for ctx, results in rounds:
        for op, out, _ in results:
            attempted += 1
            if isinstance(out, Exception):
                found = [f"raised {type(out).__name__}: {out}"]
            else:
                try:
                    found = op.check(out, ctx)
                except Exception as err:  # a check that cannot run is a failed check
                    found = [f"check raised {type(err).__name__}: {err}"]
            if found:
                failed += 1
                problems += [f"{op.name}: {p}" for p in found]
    return attempted, failed, problems


def setup(workload, seed, size, rec):
    """Build the inputs (traced when rec is given), then warm up on the smoke
    size and with each operation's full-size warm step, so first-call costs
    land here and not in the first report."""
    if rec is not None:
        rec.phase, rec.enabled = "setup", True
    ops = workloads.build(workload, seed, size)
    if rec is not None:
        rec.enabled = False
    if size == "full":
        warm = OUT / f"warmup-{os.getpid()}"
        warm.mkdir(parents=True)
        try:
            run_round(workloads.build(workload, seed, "smoke"), {"dir": warm}, None, "warmup")
        finally:
            shutil.rmtree(warm, ignore_errors=True)
        for op in ops:
            op.warm()
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at its smoke size, one traced round each")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore", UserWarning)  # theorem1's non-binding notices
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    rec = tracing.Recorder() if args.trace or args.smoke else None
    if rec is not None:
        rec.install()
    try:
        if args.smoke:
            return smoke(args.seed, work, rec)
        ops = setup(args.workload, args.seed, "full", rec)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        times, rounds = measure(ops, args.seconds, work, rec)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if rec is not None:
            memory_round(ops, work, rec)
        attempted, failed, problems = check(rounds)
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "round_s": times, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                  "report_s": {op.name: [r[i][2] for _, r in rounds] for i, op in enumerate(ops)},
                  "problems": problems[:MAX_PROBLEMS_SHOWN]}
        if rec is not None:
            result["per_layer"] = rec.metrics(len(times))
            trace_path = OUT / f"trace-{args.workload}.jsonl"
            rec.write(trace_path)
            result["trace"] = str(trace_path.relative_to(ROOT))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def smoke(seed, work, rec) -> int:
    """Each workload at smoke size: set-up, one traced round, its memory
    round, checks."""
    attempted = failed = 0
    problems, times = [], []
    for name in workloads.WORKLOADS:
        ops = setup(name, seed, "smoke", rec)
        t, rounds = measure(ops, 0, work / name, rec, one_round=True)
        memory_round(ops, work / name, rec)
        a, f, p = check(rounds)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        times += t
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "round_s": times, "problems": problems[:MAX_PROBLEMS_SHOWN],
                      "per_layer": rec.metrics(len(times))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
