"""End-to-end CLI behavior: subcommands, exit codes, files, determinism."""
import dataclasses
import json

import numpy as np
import pytest

import fup.cli
import fup.sweep
from fup.cli import main
from fup.sweep import SweepSpec, default_threads, run_sweep


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


def test_plot_requires_out():
    with pytest.raises(SystemExit) as exc:
        main(["plot", "--kind", "beta-vs-k", "--input", "whatever.jsonl"])
    assert exc.value.code == 2


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


def test_default_threads_env(monkeypatch):
    monkeypatch.delenv("FUP_THREADS", raising=False)
    assert default_threads() == 1
    monkeypatch.setenv("FUP_THREADS", "3")
    assert default_threads() == 3


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
