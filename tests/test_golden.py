"""Golden outputs: every CLI subcommand at a small size, one sweep per
sweepable command and both sweep plots, compared byte for byte with the
files under tests/golden/.

All invocations run in one subprocess with BLAS pinned to one thread, since
the last bit of some floats depends on the BLAS thread count. After an
intended change of output, regenerate with

    PYTHONPATH=src python tests/test_golden.py DIR

and copy the files named in FILES from DIR into tests/golden/.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CLI = {
    "cantor.json": ["cantor", "--M", "3", "--alphabet", "0,2", "--k", "2"],
    "cantor-dilated.json": ["cantor", "--M", "4", "--alphabet", "initial:2",
                            "--k", "2", "--alpha", "5/4"],
    "norm-dense.json": ["norm", "--M", "3", "--alphabet", "0,2", "--k", "1",
                        "--method", "dense-svd"],
    "norm-pruned.json": ["norm", "--M", "3", "--alphabet", "0,2", "--k", "10"],
    "beta-dilated.json": ["beta", "--M", "4", "--alphabet", "initial:2",
                          "--k", "2", "--alpha", "3/2"],
    "theorem1.json": ["theorem1", "--M", "16", "--delta", "0.9", "--k", "1",
                      "--grid", "2000", "--ysamples", "1001",
                      "--svg", "theorem1.svg"],
    "theorem2.json": ["theorem2", "--M", "16", "--Mdelta", "4", "--k", "3",
                      "--alpha", "5", "--outer-grid", "20000"],
    "dirichlet.json": ["dirichlet", "--M", "64", "--Mdelta", "8", "--alpha", "7",
                       "--regime", "nonstrict"],
    "baker.json": ["baker", "--N", "243", "--M", "3", "--alphabet", "0,2",
                   "--cutoff", "bump"],
}

SWEEPS = {
    "sweep-beta": {"command": "beta",
                   "grid": {"M": 3, "alphabet": "0,2", "k": [0, 1, 2, 3, 4]}},
    "sweep-theorem1": {"command": "theorem1",
                       "grid": {"M": 16, "delta": 0.9, "k": [1, 2],
                                "grid": 2000, "ysamples": 1001}},
    "sweep-theorem2": {"command": "theorem2",
                       "grid": {"M": 16, "Mdelta": 4, "k": 2,
                                "alpha": [1, 5, "3/2"], "outer_grid": 20000}},
    "sweep-dirichlet": {"command": "dirichlet",
                        "grid": {"M": [9, 16, 25], "Mdelta": [2, 3],
                                 "alpha": ["1", "3/2", "5/2"]}},
    "sweep-baker": {"command": "baker",
                    "grid": {"N": [27, 81], "M": 3, "alphabet": "0,2",
                             "cutoff": ["bump", "gauss"], "nmax": 4}},
}

PLOTS = {"beta-vs-k.svg": ("beta-vs-k", "sweep-beta"),
         "gap-vs-N.svg": ("gap-vs-N", "sweep-baker")}

FILES = sorted([*CLI, "theorem1.svg", *PLOTS]
               + [f"{name}/{f}" for name in SWEEPS
                  for f in ("results.jsonl", "summary.csv")])


def render(work: Path) -> None:
    """Run every invocation with work as the working directory."""
    from fup.cli import main

    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    for name, argv in CLI.items():
        assert main(argv + ["--out", name]) == 0, name
    for name, config in SWEEPS.items():
        Path(f"{name}.config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["sweep", "--config", f"{name}.config.json", "--out", name]) == 0, name
    for name, (kind, sweep) in PLOTS.items():
        assert main(["plot", "--kind", kind, "--input", f"{sweep}/results.jsonl",
                     "--out", name]) == 0, name


def test_golden_outputs(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.relative_to(GOLDEN).as_posix()
                  for p in GOLDEN.rglob("*") if p.is_file()) == FILES
    differ = [f for f in FILES
              if (tmp_path / f).read_bytes() != (GOLDEN / f).read_bytes()]
    assert not differ, f"output differs from tests/golden/ in {differ}"


if __name__ == "__main__":
    os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))
    render(Path(sys.argv[1]).resolve())
