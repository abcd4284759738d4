"""Tests of the benchmark itself: the smoke mode runs clean and reports
every per-layer metric, and corrupted outputs are reported as failed.

    python3 -m pytest bench
"""
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

# theorem1's notice that small M is outside the analytic regime
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def test_smoke_runs_every_workload_clean_and_reports_every_layer_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          stdout=subprocess.PIPE, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == sum(
        len(workloads.build(w, 0, "smoke")) for w in workloads.WORKLOADS)
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(result["metrics"]) == names


def _run(workload, index, tmp_path):
    op = workloads.build(workload, 0, "smoke")[index]
    ctx = {"dir": tmp_path}
    out = op.run(ctx)
    assert op.check(out, ctx) == []
    return op, ctx, out


def test_scaled_sigma_is_reported(tmp_path):
    op, ctx, (cert, rep) = _run("cantor-depth", 0, tmp_path)
    bad = dataclasses.replace(cert, sigma_max=cert.sigma_max * (1 - 1e-6))
    assert op.check((bad, rep), ctx)


def test_scaled_g_upper_is_reported(tmp_path):
    op, ctx, rep = _run("dilated-theorem2", 0, tmp_path)
    bounds = dataclasses.replace(rep.bounds, G_upper=rep.bounds.G_upper * 0.9)
    assert op.check(dataclasses.replace(rep, bounds=bounds), ctx)


@pytest.mark.parametrize("scale", [0.5, 1.5])
def test_scaled_rho_upper_is_reported(tmp_path, scale):
    op, ctx, rep = _run("baker-gelfand", 0, tmp_path)
    powers = [(n, u * scale) for n, u in rep.powers]
    bad = dataclasses.replace(rep, powers=powers, rho_upper=rep.rho_upper * scale)
    assert op.check(bad, ctx)


def test_truncated_svg_is_reported(tmp_path):
    ops = workloads.build("sweep-grid", 0, "smoke")
    ctx = {"dir": tmp_path}
    for op in ops:
        ctx[op.name] = op.run(ctx)
    plot = ops[-1]
    path = ctx[plot.name]
    assert plot.check(path, ctx) == []
    path.write_bytes(path.read_bytes()[:-20])
    assert plot.check(path, ctx)
