"""Deterministic parameter sweeps over the report-producing operations.

_RUNNERS is the one implementation of each sweepable operation (beta,
theorem1, theorem2, dirichlet, baker): it parses the parameters, applies the
defaults and checks, and returns a flat summary row plus the full report.
The CLI subcommands of the same names call these runners too.

A sweep expands a parameter grid in a fixed order, runs each point in a
thread pool (points are pure functions of their parameters and the seed),
and writes three artifacts: results.jsonl (full nested records, one per
point, in grid order), summary.csv (fixed flat columns per command), and
run_meta.json (spec hash, versions, wall time). The first two are part of
the byte-for-byte reproducibility contract; run_meta.json carries timing and
is exempt.

Grid points that violate a precondition are recorded as skipped with the
reason; points whose computation breaks a certified invariant are recorded
as failed and make the sweep exit nonzero, but never abort the other points.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .baker import BakerMap, gelfand_bound, make_cutoff
from .cantor import (Alphabet, CapacityError, build_alphabet_initial,
                     build_alphabet_interval, cantor_elements, dilate,
                     parse_rational)
from .diophantine import best_rational, theorem2_report
from .spectral import ConvergenceError, beta_dilated, beta_k, masked_norm
from .testfn import theorem1_certificate
from . import __version__ as _pkg_version
from .serialize import dumps_canonical, sanitize, write_csv, write_json, write_jsonl

SANDWICH_SLACK = 1e-9


def parse_alpha(text) -> Fraction:
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    return parse_rational(str(text))


def parse_alphabet_spec(M: int, spec: str) -> Alphabet:
    """Alphabet from a compact string: "0,2" literal letters,
    "interval:0.75" for the centered interval alphabet, "initial:4" for
    {0,...,3}."""
    spec = str(spec).strip()
    if spec.startswith("interval:"):
        return build_alphabet_interval(M, float(spec.split(":", 1)[1]))
    if spec.startswith("initial:"):
        return build_alphabet_initial(M, int(spec.split(":", 1)[1]))
    letters = tuple(sorted(int(tok) for tok in spec.split(",") if tok.strip() != ""))
    return Alphabet(M, letters)


@dataclass
class SweepSpec:
    """Grid description: every grid value may be a scalar or a list."""

    command: str
    grid: dict
    tol: float = 1e-10
    seed: int = 0
    out_dir: str = "."
    threads: int | None = None

    def to_json(self) -> dict:
        d = asdict(self)
        d["grid"] = {k: list(v) if isinstance(v, (list, tuple)) else [v]
                     for k, v in self.grid.items()}
        return d

    @classmethod
    def from_json(cls, d: dict) -> "SweepSpec":
        return cls(command=d["command"], grid=dict(d.get("grid", {})),
                   tol=float(d.get("tol", 1e-10)), seed=int(d.get("seed", 0)),
                   out_dir=str(d.get("out_dir", ".")),
                   threads=d.get("threads"))


@dataclass
class RunRecord:
    spec_hash: str
    command: str
    rows: list
    n_ok: int = 0
    n_skipped: int = 0
    n_failed: int = 0
    paths: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.n_failed > 0


def _expand(grid: dict) -> list[dict]:
    keys = sorted(grid.keys())
    lists = [grid[k] if isinstance(grid[k], (list, tuple)) else [grid[k]]
             for k in keys]
    return [dict(zip(keys, combo)) for combo in itertools.product(*lists)]


# --- per-command point runners; each returns (flat_row, detail) -------------


def _point_beta(p: dict, tol: float, seed: int):
    M, k = int(p["M"]), int(p["k"])
    alphabet = parse_alphabet_spec(M, p["alphabet"])
    method = str(p.get("method", "lanczos"))
    alpha = parse_alpha(p["alpha"]) if "alpha" in p else Fraction(1)
    cantor = cantor_elements(alphabet, k)
    if alpha == 1:
        cert = masked_norm(cantor, cantor, M**k, tol=tol, seed=seed, method=method)
        rep = beta_k(cert, alphabet, k)
    else:
        dil = dilate(cantor, alpha)
        cert = masked_norm(dil, dil, dil.N, tol=tol, seed=seed, method=method)
        rep = beta_dilated(cert, dil)
    if not (rep.lower_theory - SANDWICH_SLACK <= rep.beta_k
            <= rep.upper_theory + SANDWICH_SLACK):
        raise ArithmeticError(
            f"exponent {rep.beta_k} violates the sandwich "
            f"[{rep.lower_theory}, {rep.upper_theory}]")
    row = {"M": M, "alphabet": str(p["alphabet"]), "k": k, "N": rep.N,
           "delta": rep.delta, "alpha": str(alpha), "sigma": cert.sigma_max,
           "beta_k": rep.beta_k, "lower_theory": rep.lower_theory,
           "upper_theory": rep.upper_theory, "method": cert.method,
           "iterations": cert.iterations, "residual": cert.residual}
    return row, {"exponents": rep, "norm": cert}


_BETA_COLS = ["M", "alphabet", "k", "N", "delta", "alpha", "sigma", "beta_k",
              "lower_theory", "upper_theory", "method", "iterations", "residual"]


def _point_theorem1(p: dict, tol: float, seed: int):
    M, k = int(p["M"]), int(p["k"])
    delta = float(p["delta"])
    rep = theorem1_certificate(
        M, delta, k, grid_points=int(p.get("grid", 100_000)), tol=tol,
        seed=seed, method=str(p.get("method", "lanczos")),
        y_samples=int(p.get("ysamples", 20_001)))
    ex = rep.exponents
    row = {"M": M, "delta": delta, "k": k, "N": ex.N, "sigma": ex.sigma_max,
           "beta_k": ex.beta_k, "z_certified_lower": rep.z.z_certified_lower,
           "beta_upper_certified": rep.beta_upper_certified,
           "beta_bound_theory": rep.beta_bound_theory,
           "beta_bound_ok": rep.beta_bound_ok, "binding": rep.binding}
    return row, rep


_T1_COLS = ["M", "delta", "k", "N", "sigma", "beta_k", "z_certified_lower",
            "beta_upper_certified", "beta_bound_theory", "beta_bound_ok", "binding"]


def _point_theorem2(p: dict, tol: float, seed: int):
    rep = theorem2_report(
        int(p["M"]), int(p["Mdelta"]), int(p["k"]), parse_alpha(p["alpha"]),
        eps=float(p.get("eps", 0.0)), tol=tol, seed=seed,
        method=str(p.get("method", "lanczos")),
        outer_grid=int(p.get("outer_grid", 200_000)))
    row = {"M": rep.M, "Mdelta": rep.Mdelta, "k": rep.k, "alpha": str(rep.alpha),
           "N": rep.N, "q": rep.approx.q, "gamma": rep.gamma,
           "sigma": rep.norm.sigma_max, "beta_kN": rep.exponents.beta_k,
           "target_exponent": rep.target_exponent, "eps_emp": rep.eps_emp,
           "G_upper": rep.bounds.G_upper, "C_fit": rep.C_fit}
    return row, rep


_T2_COLS = ["M", "Mdelta", "k", "alpha", "N", "q", "gamma", "sigma", "beta_kN",
            "target_exponent", "eps_emp", "G_upper", "C_fit"]


def _point_dirichlet(p: dict, tol: float, seed: int):
    M, Mdelta = int(p["M"]), int(p["Mdelta"])
    alpha = parse_alpha(p["alpha"])
    ra = best_rational(alpha, M, Mdelta, regime=str(p.get("regime", "strict")))
    row = {"M": M, "Mdelta": Mdelta, "alpha": str(alpha),
           "b": ra.b, "q": ra.q, "gamma": ra.gamma,
           "error": f"{ra.error.numerator}/{ra.error.denominator}",
           "strict_ok": ra.strict_ok, "nonstrict_ok": ra.nonstrict_ok}
    return row, ra


_DIR_COLS = ["M", "Mdelta", "alpha", "b", "q", "gamma", "error",
             "strict_ok", "nonstrict_ok"]


def _point_baker(p: dict, tol: float, seed: int):
    N, M = int(p["N"]), int(p["M"])
    alphabet = parse_alphabet_spec(M, p["alphabet"])
    cutoff = make_cutoff(str(p.get("cutoff", "bump")), N // M)
    n_max = int(p.get("nmax", 64))
    rep = gelfand_bound(BakerMap(N, M, alphabet, cutoff), n_max=n_max, tol=tol,
                        seed=seed, eps=float(p.get("eps", 0.0)),
                        method=str(p.get("method", "lanczos")))
    comp = rep.comparison or {}
    alpha_json = comp.get("alpha")
    alpha_str = None
    if alpha_json is not None:
        alpha_str = f"{alpha_json['numerator']}/{alpha_json['denominator']}"
    row = {"N": N, "M": M, "alphabet": str(p["alphabet"]),
           "cutoff": cutoff.kind, "nmax": n_max,
           "alpha": alpha_str, "q": comp.get("q"), "gamma": comp.get("gamma"),
           "rho_upper": rep.rho_upper,
           "theorem3_bound": comp.get("main_term")}
    return row, rep


_BAKER_COLS = ["N", "M", "alphabet", "cutoff", "nmax", "alpha", "q", "gamma",
               "rho_upper", "theorem3_bound"]

_RUNNERS = {
    "beta": (_point_beta, _BETA_COLS),
    "theorem1": (_point_theorem1, _T1_COLS),
    "theorem2": (_point_theorem2, _T2_COLS),
    "dirichlet": (_point_dirichlet, _DIR_COLS),
    "baker": (_point_baker, _BAKER_COLS),
}


def default_threads() -> int:
    env = os.environ.get("FUP_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return 1


def run_sweep(spec: SweepSpec) -> RunRecord:
    """Execute every grid point and persist results under spec.out_dir.

    Points run concurrently but results are collected and written in grid
    order, so output bytes do not depend on the thread count.
    """
    if spec.command not in _RUNNERS:
        raise ValueError(f"command {spec.command!r} is not sweepable; "
                         f"choose from {sorted(_RUNNERS)}")
    runner, cols = _RUNNERS[spec.command]
    points = _expand(spec.grid)
    spec_hash = hashlib.sha256(dumps_canonical(spec.to_json()).encode()).hexdigest()
    t0 = time.monotonic()

    def run_point(p):
        try:
            row, detail = runner(p, spec.tol, spec.seed)
            return {"status": "ok", "error": None, "point": p, **row,
                    "detail": sanitize(detail)}
        except (ValueError, CapacityError) as err:
            return {"status": "skipped", "error": str(err), "point": p}
        except (ArithmeticError, ConvergenceError) as err:
            return {"status": "failed", "error": str(err), "point": p}

    workers = spec.threads if spec.threads else default_threads()
    if workers > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_point, points))
    else:
        rows = [run_point(p) for p in points]

    record = RunRecord(spec_hash=spec_hash, command=spec.command, rows=rows)
    record.n_ok = sum(r["status"] == "ok" for r in rows)
    record.n_skipped = sum(r["status"] == "skipped" for r in rows)
    record.n_failed = sum(r["status"] == "failed" for r in rows)

    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results_path = out / "results.jsonl"
    csv_path = out / "summary.csv"
    meta_path = out / "run_meta.json"
    write_jsonl(results_path, rows)
    header = cols + ["status", "error"]
    write_csv(csv_path, header,
              [[r.get(c) for c in cols] + [r["status"], r.get("error")]
               for r in rows])
    write_json(meta_path, {
        "spec": spec.to_json(),
        "spec_hash": spec_hash,
        "elapsed_s": time.monotonic() - t0,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__,
                     "package": _pkg_version},
        "counts": {"ok": record.n_ok, "skipped": record.n_skipped,
                   "failed": record.n_failed},
    })
    record.paths = {"results": str(results_path), "summary": str(csv_path),
                    "meta": str(meta_path)}
    return record
