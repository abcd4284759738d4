"""End-to-end CLI behavior: subcommands, exit codes, files, determinism."""
import argparse
import dataclasses
import functools
import json
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

import fup.cli
import fup.sweep
from fup.cantor import Alphabet, CapacityError, cantor_elements
from fup.cli import build_parser, main
from fup.spectral import masked_norm
from fup.sweep import REQUIRED, SweepSpec, parameters, run_sweep

README = Path(__file__).resolve().parents[1] / "README.md"


def _run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


def test_cantor_subcommand(capsys):
    d = _run_json(capsys, ["cantor", "--M", "3", "--alphabet", "0,2", "--k", "2"])
    assert d["elements"] == [0, 2, 6, 8]
    assert d["N"] == 9 and d["size"] == 4
    assert not d["elements_omitted"]


def test_cantor_dilated(capsys):
    d = _run_json(capsys, ["cantor", "--M", "4", "--alphabet", "initial:2",
                           "--k", "2", "--alpha", "5/4"])
    assert d["N"] == 20
    assert d["alpha"] == {"numerator": 5, "denominator": 4}


def test_norm_subcommand(capsys):
    d = _run_json(capsys, ["norm", "--M", "3", "--alphabet", "0,2", "--k", "1",
                           "--method", "dense-svd"])
    assert abs(d["norm"]["sigma_max"] - 1.0) < 1e-10
    assert d["norm"]["method"] == "dense-svd"


def test_beta_subcommand(capsys):
    d = _run_json(capsys, ["beta", "--M", "3", "--alphabet", "0,2", "--k", "2"])
    ex = d["exponents"]
    assert ex["lower_theory"] - 1e-9 <= ex["beta_k"] <= ex["upper_theory"] + 1e-9
    d2 = _run_json(capsys, ["beta", "--M", "4", "--alphabet", "initial:2",
                            "--k", "2", "--alpha", "3/2"])
    assert d2["exponents"]["N"] == 24


def test_beta_checks_the_dimension_sandwich(monkeypatch, capsys):
    # the subcommand runs the sweep's check, so an exponent outside
    # [lower_theory, upper_theory] fails the same way in both
    real_beta_k = fup.sweep.beta_k

    def outside(cert, alphabet, k):
        rep = real_beta_k(cert, alphabet, k)
        return dataclasses.replace(rep, beta_k=rep.upper_theory + 0.1)

    monkeypatch.setattr(fup.sweep, "beta_k", outside)
    assert main(["beta", "--M", "3", "--alphabet", "0,2", "--k", "2"]) == 1
    assert "computation failed" in capsys.readouterr().err


def test_theorem1_subcommand(tmp_path, capsys):
    svg = tmp_path / "profile.svg"
    d = _run_json(capsys, ["theorem1", "--M", "16", "--delta", "0.9", "--k", "1",
                           "--grid", "2000", "--ysamples", "1001",
                           "--svg", str(svg)])
    assert d["binding"] is True
    assert svg.exists() and svg.read_text().startswith("<svg")


def test_theorem2_subcommand(capsys):
    d = _run_json(capsys, ["theorem2", "--M", "16", "--Mdelta", "4", "--k", "1",
                           "--alpha", "5", "--outer-grid", "2000"])
    assert d["N"] == 80
    assert d["approx"]["q"] == 3


def test_dirichlet_subcommand(capsys):
    d = _run_json(capsys, ["dirichlet", "--M", "16", "--Mdelta", "4",
                           "--alpha", "5"])
    assert d["approx"]["b"] == 1 and d["approx"]["q"] == 3
    d2 = _run_json(capsys, ["dirichlet", "--M", "64", "--Mdelta", "8",
                            "--alpha", "7", "--regime", "nonstrict"])
    assert d2["approx"]["q"] == 8


def test_baker_subcommand(capsys):
    d = _run_json(capsys, ["baker", "--N", "27", "--M", "3", "--alphabet", "0,2",
                           "--cutoff", "bump", "--nmax", "4"])
    assert d["rho_upper"] < 1.0
    assert [p[0] for p in d["powers"]] == [1, 2, 4]


def test_baker_resolves_tiny_gram_levels(capsys):
    # ||B^64||^2 is about 1e-64 here; every level's Lanczos must still converge.
    # The dense spectral radius of B is 0.3026; ||K^16||^{1/16} <= 0.351 on the
    # compression K = R B R^*
    t0 = time.perf_counter()
    d = _run_json(capsys, ["baker", "--N", "2187", "--M", "3", "--alphabet", "0,2",
                           "--cutoff", "bump"])
    assert time.perf_counter() - t0 < 10.0
    assert [level["n"] for level in d["diagnostics"]] == [1, 2, 4, 8, 16, 32, 64]
    assert all(level["source"] == "iteration" for level in d["diagnostics"])
    assert all(level["converged"] for level in d["diagnostics"])
    assert 0.3026 <= d["rho_upper"] <= 0.351


def test_baker_deep_schedule_stays_sound_and_fast(capsys):
    # levels past n = 128 are below what doubles resolve and fall back at one
    # matvec each; the dense spectral radius of B is 0.3011103
    t0 = time.perf_counter()
    d = _run_json(capsys, ["baker", "--N", "243", "--M", "3", "--alphabet", "0,2",
                           "--cutoff", "bump", "--nmax", "16384"])
    assert time.perf_counter() - t0 < 10.0
    assert d["rho_upper"] >= 0.30111
    assert all(u > 0.0 for _, u in d["powers"])


def test_baker_custom_cutoff(tmp_path, capsys):
    path = tmp_path / "chi.csv"
    path.write_text(",".join(str(v) for v in np.linspace(0, 1, 9)) + "\n")
    d = _run_json(capsys, ["baker", "--N", "27", "--M", "3", "--alphabet",
                           "0,1,2", "--cutoff", str(path), "--nmax", "2"])
    assert d["rho_upper"] <= 1.0 + 1e-12

    bad = tmp_path / "bad.csv"
    bad.write_text("0.5,1.5\n")
    rc = main(["baker", "--N", "4", "--M", "2", "--alphabet", "0,1",
               "--cutoff", str(bad)])
    assert rc == 2
    nan = tmp_path / "nan.csv"
    nan.write_text("0.5,nan,0.5\n")
    assert main(["baker", "--N", "9", "--M", "3", "--alphabet", "0,2",
                 "--cutoff", str(nan)]) == 2
    assert "cutoff samples must lie in [0, 1]" in capsys.readouterr().err

    # a sweep point takes the same CSV path; a bad file is a skipped point
    record = run_sweep(SweepSpec("baker", {"N": 27, "M": 3, "alphabet": "0,1,2",
                                           "cutoff": [str(path), str(bad)],
                                           "nmax": 2},
                                 out_dir=str(tmp_path / "sweep")))
    ok, skipped = record.rows
    assert ok["status"] == "ok" and ok["cutoff"] == "custom"
    assert ok["rho_upper"] == d["rho_upper"]
    assert skipped["status"] == "skipped"


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "res.json"
    rc = main(["dirichlet", "--M", "16", "--Mdelta", "4", "--alpha", "5",
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["approx"]["q"] == 3


def test_exit_code_2_on_bad_parameters(capsys):
    assert main(["cantor", "--M", "3", "--alphabet", "0,9", "--k", "1"]) == 2
    assert main(["sweep", "--config", "/nonexistent/config.json"]) == 2
    assert main(["norm", "--M", "3", "--alphabet", "0,2", "--k", "1",
                 "--tol", "0"]) == 2
    capsys.readouterr()
    # NaN and inf tolerances are refused before any solver runs
    for command, tol in [("norm", "nan"), ("norm", "inf"), ("baker", "-1"),
                         ("baker", "nan"), ("baker", "inf")]:
        size = ["--k", "6"] if command == "norm" else ["--N", "27", "--nmax", "2"]
        assert main([command, "--M", "3", "--alphabet", "0,2", *size,
                     f"--tol={tol}"]) == 2
        assert f"tol must be positive and finite, got {float(tol)}" in capsys.readouterr().err


def _subparser(command):
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


@pytest.mark.parametrize("command", sorted(fup.sweep._RUNNERS))
def test_operation_flags_are_the_runner_parameters(command):
    params = parameters(command)
    actions = {a.dest: a for a in _subparser(command)._actions
               if a.dest not in {"help", "out", "tol", "seed", "svg"}}
    assert set(actions) == set(params)
    for key, default in params.items():
        assert actions[key].option_strings == ["--" + key.replace("_", "-")]
        assert actions[key].required == (default is REQUIRED)
        if default is not REQUIRED:
            assert actions[key].default == default


@pytest.mark.parametrize("argv", [
    ["beta", "--M", "3", "--alphabet", "0,2", "--k", "1", "--threads", "4"],
    ["cantor", "--M", "3", "--alphabet", "0,2", "--k", "1", "--tol", "0"],
    ["dirichlet", "--M", "16", "--Mdelta", "4", "--alpha", "5", "--seed", "1"],
    ["plot", "--kind", "beta-vs-k", "--input", "r.jsonl", "--out", "p.svg",
     "--tol", "1e-8"],
])
def test_flags_that_would_be_ignored_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_integer_parameters_refuse_fractions(tmp_path, capsys):
    assert main(["beta", "--M", "3", "--alphabet", "0,2", "--k", "2.7"]) == 2
    assert "k must be an integer, got '2.7'" in capsys.readouterr().err
    record = run_sweep(SweepSpec("beta", {"M": 3, "alphabet": "0,2", "k": [2.7, 2.0]},
                                 out_dir=str(tmp_path)))
    skipped, ok = record.rows
    assert skipped["status"] == "skipped"
    assert skipped["error"] == "k must be an integer, got 2.7"
    assert ok["status"] == "ok" and ok["k"] == 2
    # a null float value skips its point instead of killing the sweep
    record = run_sweep(SweepSpec("theorem2", {"M": 16, "Mdelta": 4, "k": 1,
                                              "alpha": 5, "eps": [None, 0.0],
                                              "outer_grid": 2000},
                                 out_dir=str(tmp_path)))
    assert [r["status"] for r in record.rows] == ["skipped", "ok"]
    assert record.rows[0]["error"] == "eps must be a real number, got None"


@pytest.mark.parametrize("grid, message", [
    ({"M": 3, "k": 1}, "beta grid lacks the required key 'alphabet'"),
    ({"M": 3, "alphabet": "0,2", "k": 1, "mehtod": "dense-svd"},
     "unknown beta grid key 'mehtod'"),
])
def test_sweep_refuses_missing_and_unknown_grid_keys(tmp_path, capsys, grid, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "beta", "grid": grid}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "o" / "results.jsonl").exists()


def test_sweep_config_without_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"M": 16, "Mdelta": 4, "alpha": 5}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "lacks the required key 'command'" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ([{"command": "dirichlet"}], "a sweep config and its grid must be JSON objects"),
    ({"command": "dirichlet", "grid": [1, 2]},
     "a sweep config and its grid must be JSON objects"),
    ({"command": "dirichlet", "seeds": 3}, "unknown sweep config key 'seeds'"),
    ({"command": "dirichlet", "tol": None}, "tol must be a real number, got None"),
    ({"command": "dirichlet", "seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"command": "dirichlet", "threads": "two"}, "threads must be an integer, got 'two'"),
])
def test_malformed_sweep_config_exits_2(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "o").exists()


DIRICHLET = {"M": 16, "Mdelta": 4, "alpha": 5}


@pytest.mark.parametrize("command, grid, extra, message", [
    ("dirichlet", DIRICHLET, {"tol": None}, "tol must be a real number, got None"),
    ("dirichlet", DIRICHLET, {"tol": -1}, "tol must be positive and finite, got -1.0"),
    ("dirichlet", DIRICHLET, {"tol": "abc"}, "tol must be a real number, got 'abc'"),
    ("dirichlet", DIRICHLET, {"seed": 1.5}, "seed must be an integer, got 1.5"),
    ("dirichlet", DIRICHLET, {"threads": "two"}, "threads must be an integer, got 'two'"),
    ("dirichlet", DIRICHLET, {"threads": 0}, "threads must be at least 1, got 0"),
    ("dirichlet", DIRICHLET, {"threads": -2}, "threads must be at least 1, got -2"),
    ("dirichlet", {**DIRICHLET, "regmie": "strict"}, {}, "unknown dirichlet grid key 'regmie'"),
    ("dirichlet", {"M": 16, "Mdelta": 4}, {},
     "dirichlet grid lacks the required key 'alpha'"),
    ("norm", DIRICHLET, {}, "command 'norm' is not sweepable"),
])
def test_spec_made_in_python_is_checked_like_json(command, grid, extra, message):
    with pytest.raises(ValueError) as made:
        SweepSpec(command, grid, **extra)
    with pytest.raises(ValueError) as read:
        SweepSpec.from_json({"command": command, "grid": grid, **extra})
    assert str(made.value) == str(read.value)
    assert str(made.value).startswith(message)


def test_sweep_unknown_command_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "norm", "grid": {"M": 3, "alphabet": "0,2", "k": 1}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: command 'norm' is not sweepable")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_sweep_refuses_fewer_than_one_thread(tmp_path, capsys, threads):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "dirichlet", "grid": DIRICHLET}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--threads", threads]) == 2
    assert capsys.readouterr().err == f"error: threads must be at least 1, got {threads}\n"
    assert not (tmp_path / "o").exists()


def test_sweep_records_a_broken_invariant_as_failed(tmp_path, capsys, monkeypatch):
    runner, cols = fup.sweep._RUNNERS["dirichlet"]

    @functools.wraps(runner)
    def broken(*args, **kwargs):
        if kwargs["alpha"] == 3:
            raise ArithmeticError("certified floor violated")
        return runner(*args, **kwargs)

    monkeypatch.setitem(fup.sweep._RUNNERS, "dirichlet", (broken, cols))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "dirichlet", "grid": {**DIRICHLET, "alpha": [3, 5]}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert (summary["ok"], summary["skipped"], summary["failed"]) == (1, 0, 1)
    rows = [json.loads(line) for line in
            (tmp_path / "o" / "results.jsonl").read_text().splitlines()]
    assert [r["status"] for r in rows] == ["failed", "ok"]
    assert rows[0]["error"] == "certified floor violated"


def test_sweep_refuses_bad_tol_like_the_command(tmp_path, capsys):
    assert main(["beta", "--M", "3", "--alphabet", "0,2", "--k", "2", "--tol", "-1"]) == 2
    reason = capsys.readouterr().err
    assert reason == "error: tol must be positive and finite, got -1.0\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "beta", "tol": -1,
                               "grid": {"M": 3, "alphabet": "0,2", "k": [2, 3]}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == reason
    assert not (tmp_path / "o").exists()
    # the --tol flag wins over the config, so a good flag runs the sweep
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--tol", "1e-10"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] == 2


def test_sweep_config_numbers_may_be_strings(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "dirichlet", "tol": "1e-6", "threads": "2",
                               "grid": {"M": 16, "Mdelta": 4, "alpha": 5}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    spec = json.loads((tmp_path / "o" / "run_meta.json").read_text())["spec"]
    assert (spec["tol"], spec["threads"]) == (1e-6, 2)


def test_unknown_method_fails_before_any_work(capsys):
    t0 = time.perf_counter()
    assert main(["theorem1", "--M", "256", "--delta", "0.9", "--k", "1",
                 "--method", "foo"]) == 2
    assert time.perf_counter() - t0 < 0.5
    assert "unknown method 'foo'" in capsys.readouterr().err


def test_oversized_outer_grid_fails_before_any_work(tmp_path, capsys):
    t0 = time.perf_counter()
    assert main(["theorem2", "--M", "16", "--Mdelta", "4", "--k", "1",
                 "--alpha", "5", "--outer-grid", "1000000000"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "exceeds the |F_1| table budget" in capsys.readouterr().err
    record = run_sweep(SweepSpec("theorem2", {"M": 16, "Mdelta": 4, "k": 1, "alpha": 5,
                                              "outer_grid": [2000, 1000000000]},
                                 out_dir=str(tmp_path)))
    assert [r["status"] for r in record.rows] == ["ok", "skipped"]


def test_fft_route_refuses_large_N_before_any_work(tmp_path, capsys):
    # rational alpha and dense alphabets stay on the FFT route, which
    # would ask for arrays of N = 2.5e7 and 2.7e8 complex entries
    for argv in (["beta", "--M", "16", "--alphabet", "initial:4", "--k", "6",
                  "--alpha", "3/2"],
                 ["norm", "--M", "16", "--alphabet", "interval:0.9", "--k", "7"]):
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "exceeds the FFT budget 2^24" in capsys.readouterr().err
    record = run_sweep(SweepSpec("beta", {"M": 16, "alphabet": "initial:4",
                                          "k": [2, 7], "alpha": "3/2"},
                                 out_dir=str(tmp_path)))
    assert [r["status"] for r in record.rows] == ["ok", "skipped"]


def test_integer_dilation_reaches_deep_k(capsys):
    # N = 5 * 16^8 = 2.1e10: the pruned route never leaves the 4^8 points
    t0 = time.perf_counter()
    d = _run_json(capsys, ["beta", "--M", "16", "--alphabet", "initial:4",
                           "--k", "8", "--alpha", "5"])
    assert time.perf_counter() - t0 < 10.0
    ex = d["exponents"]
    assert ex["N"] == 5 * 16**8
    assert ex["lower_theory"] <= ex["beta_k"] <= ex["upper_theory"]
    assert ex["beta_k"] == pytest.approx(0.14486, abs=1e-5)


def test_pruned_route_refuses_large_sets_before_any_work(tmp_path, capsys):
    # 4^12 and 2^23 points: the first 16 Lanczos rows alone would take 4 GiB
    for argv in (["beta", "--M", "16", "--alphabet", "initial:4", "--k", "12",
                  "--alpha", "5"],
                 ["norm", "--M", "4", "--alphabet", "0,3", "--k", "23"]):
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "pruned budget" in capsys.readouterr().err
    record = run_sweep(SweepSpec("beta", {"M": 16, "alphabet": "initial:4",
                                          "k": [8, 12], "alpha": 5},
                                 out_dir=str(tmp_path)))
    assert [r["status"] for r in record.rows] == ["ok", "skipped"]


def test_dense_route_refuses_large_sets_before_any_work(capsys):
    # |X| |Y| = 4^24 entries; the 4^12 elements alone would take 128 MiB
    t0 = time.perf_counter()
    assert main(["norm", "--M", "16", "--alphabet", "initial:4", "--k", "12",
                 "--alpha", "5", "--method", "dense-svd"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "dense submatrix 16777216 x 16777216 too large" in capsys.readouterr().err
    # 3^9 points: |X| |Y| = 3.9e8 entries, and 2 * 3^9 < 4^9 leaves the norm open
    c = cantor_elements(Alphabet(4, (0, 1, 2)), 9)
    with pytest.raises(CapacityError):
        masked_norm(c, c, 4**9, method="dense-svd")
    assert "elements" not in vars(c)
    # the full alphabet has |X| + |Y| = 2N: the dimension count answers sigma = 1
    full = cantor_elements(Alphabet(4, (0, 1, 2, 3)), 9)
    cert = masked_norm(full, full, 4**9, method="dense-svd")
    assert (cert.sigma_max, cert.method, cert.iterations, cert.residual) == \
        (1.0, "dense-svd", 0, 0.0)
    assert "elements" not in vars(full)


def test_norm_one_by_dimension_count_needs_no_budget(capsys):
    # N = 16^8 is past the FFT budget and the 15^8 elements past the 2^26
    # an element read allows, but 2 * 15^8 > 16^8 decides sigma = 1
    t0 = time.perf_counter()
    with pytest.warns(UserWarning, match="delta > 1/2"):
        d = _run_json(capsys, ["norm", "--M", "16", "--alphabet", "initial:15", "--k", "8"])
    assert time.perf_counter() - t0 < 1.0
    assert d["N"] == 16**8 and d["size"] == 15**8
    assert d["norm"]["sigma_max"] == 1.0
    assert d["norm"]["iterations"] == 0 and d["norm"]["residual"] == 0.0


def test_theorem2_reaches_deep_k(capsys):
    # N = 5 * 16^8 = 2.1e10: the report's norm is fup beta's, bit for bit
    t0 = time.perf_counter()
    d = _run_json(capsys, ["theorem2", "--M", "16", "--Mdelta", "4", "--k", "8",
                           "--alpha", "5"])
    assert time.perf_counter() - t0 < 10.0
    beta = _run_json(capsys, ["beta", "--M", "16", "--alphabet", "initial:4",
                              "--k", "8", "--alpha", "5"])
    assert d["exponents"]["beta_k"] == beta["exponents"]["beta_k"]
    assert d["exponents"]["beta_k"] == pytest.approx(0.1448642750850855, abs=1e-12)
    assert d["bounds"]["S_k_grid"] is None


def test_sweep_flags_win_over_the_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "dirichlet", "tol": 1e-6, "seed": 3,
                               "threads": 2,
                               "grid": {"M": 16, "Mdelta": 4, "alpha": 5}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--seed", "5"]) == 0
    capsys.readouterr()
    spec = json.loads((tmp_path / "o" / "run_meta.json").read_text())["spec"]
    assert (spec["tol"], spec["seed"], spec["threads"]) == (1e-6, 5, 2)
    assert spec["out_dir"] == str(tmp_path / "o")


def test_readme_command_lines_parse():
    # parse, without running, every `fup ...` line of the Command line section
    section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1]
    section = section.split("\n## ")[0]
    lines = [line.split(" #")[0] for line in section.splitlines()
             if line.startswith("fup ")]
    assert lines
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == shlex.split(line)[1]


def test_plot_requires_out():
    with pytest.raises(SystemExit) as exc:
        main(["plot", "--kind", "beta-vs-k", "--input", "whatever.jsonl"])
    assert exc.value.code == 2
    kind = next(a for a in _subparser("plot")._actions if a.dest == "kind")
    assert sorted(kind.choices) == ["beta-vs-k", "gap-vs-N", "profile"]


def test_exit_code_1_on_broken_invariant(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ArithmeticError("certified floor violated")
    monkeypatch.setattr(fup.cli, "masked_norm", boom)
    assert main(["norm", "--M", "3", "--alphabet", "0,2", "--k", "1"]) == 1
    assert "computation failed" in capsys.readouterr().err


def test_exit_code_2_on_memory_error(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.02 GiB")
    monkeypatch.setattr(fup.cli, "masked_norm", boom)
    assert main(["norm", "--M", "3", "--alphabet", "0,2", "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 8.02 GiB\n"


def test_sweep_and_plot_determinism(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "beta",
        "grid": {"M": 3, "alphabet": "0,2", "k": [1, 2, 3]},
    }))
    outs = []
    for name in ("a", "b"):
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / name)])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert json.loads(outs[0])["ok"] == 3
    ra = (tmp_path / "a" / "results.jsonl").read_bytes()
    rb = (tmp_path / "b" / "results.jsonl").read_bytes()
    assert ra == rb
    assert ((tmp_path / "a" / "summary.csv").read_bytes()
            == (tmp_path / "b" / "summary.csv").read_bytes())
    meta = json.loads((tmp_path / "a" / "run_meta.json").read_text())
    assert meta["counts"] == {"ok": 3, "skipped": 0, "failed": 0}
    assert meta["spec_hash"]

    # plotting the same rows twice gives identical bytes
    for name in ("p1.svg", "p2.svg"):
        rc = main(["plot", "--kind", "beta-vs-k",
                   "--input", str(tmp_path / "a" / "results.jsonl"),
                   "--out", str(tmp_path / name)])
        assert rc == 0
    capsys.readouterr()
    assert ((tmp_path / "p1.svg").read_bytes()
            == (tmp_path / "p2.svg").read_bytes())


def test_sweep_thread_count_does_not_change_bytes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "dirichlet",
        "grid": {"M": [9, 16, 25], "Mdelta": [2, 3], "alpha": ["1", "3/2", "5/2"]},
    }))
    for name, threads in (("t1", "1"), ("t4", "4")):
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / name),
                   "--threads", threads])
        assert rc == 0
        capsys.readouterr()
    assert ((tmp_path / "t1" / "results.jsonl").read_bytes()
            == (tmp_path / "t4" / "results.jsonl").read_bytes())
    assert ((tmp_path / "t1" / "summary.csv").read_bytes()
            == (tmp_path / "t4" / "summary.csv").read_bytes())


def test_sweep_records_skips_without_aborting(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # k=0 violates a precondition; the other two points still run
    cfg.write_text(json.dumps({
        "command": "beta",
        "grid": {"M": 3, "alphabet": "0,2", "k": [0, 1, 2]},
    }))
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["ok"] == 2 and summary["skipped"] == 1
    rows = [json.loads(line) for line in
            (tmp_path / "o" / "results.jsonl").read_text().splitlines()]
    statuses = [r["status"] for r in rows]
    assert statuses == ["skipped", "ok", "ok"]
    assert rows[0]["error"]


def test_dirichlet_sweep_keeps_the_point_error_apart(tmp_path, capsys):
    # the approximation error |alpha/M - b/q| is approx_error; error is the
    # point's failure reason, null on an ok row
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "dirichlet",
                               "grid": {"M": 9, "Mdelta": [0, 2], "alpha": "3/2"}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    skipped, ok = [json.loads(line) for line in
                   (tmp_path / "o" / "results.jsonl").read_text().splitlines()]
    assert skipped["status"] == "skipped" and skipped["error"]
    assert ok["status"] == "ok" and ok["error"] is None and ok["approx_error"] == "1/6"
    header = (tmp_path / "o" / "summary.csv").read_text().splitlines()[0].split(",")
    assert len(header) == len(set(header))
    assert header[-3:] == ["nonstrict_ok", "status", "error"]


def test_sweep_empty_grid(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "dirichlet",
                               "grid": {"M": [], "Mdelta": [], "alpha": []}}))
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {**summary, "ok": 0, "skipped": 0, "failed": 0}
    assert (tmp_path / "o" / "results.jsonl").read_text() == ""
    csv = (tmp_path / "o" / "summary.csv").read_text().splitlines()
    assert len(csv) == 1 and csv[0].startswith("M,")


def test_gap_plot_from_baker_sweep(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "baker",
        "grid": {"N": [27, 81], "M": 3, "alphabet": "0,2",
                 "cutoff": "bump", "nmax": 4},
    }))
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    capsys.readouterr()
    rc = main(["plot", "--kind", "gap-vs-N",
               "--input", str(tmp_path / "o" / "results.jsonl"),
               "--out", str(tmp_path / "gap.svg")])
    assert rc == 0
    text = (tmp_path / "gap.svg").read_text()
    assert text.startswith("<svg") and "rho_upper" in text
