"""Deterministic parameter sweeps over the report-producing operations.

_RUNNERS is the one implementation of each sweepable operation (beta,
theorem1, theorem2, dirichlet, baker): it parses the parameters, applies the
defaults and checks, and returns a flat summary row plus the full report.
A runner's arguments before `*` are the operation's parameters, and its
signature is their one declaration: one without a default is required. A
SweepSpec checks its grid keys against it, and the CLI subcommands of the same
names take their flags from it and call these runners too.

A SweepSpec checks every field when it is made, from a JSON config, `fup
sweep` flags or Python alike, so run_sweep takes it as given. A sweep expands
the grid in a fixed order, runs its points in order or, with threads > 1, in
a thread pool (points are pure functions of their parameters and the seed),
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
import inspect
import itertools
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from .baker import BakerMap, gelfand_bound, make_cutoff
from .cantor import (Alphabet, CantorSet, CapacityError, build_alphabet_initial,
                     build_alphabet_interval, cantor_elements, dilate)
from .diophantine import best_rational, theorem2_report
from .spectral import (DEFAULT_SEED, DEFAULT_TOL, ConvergenceError, beta_dilated,
                       beta_k, check_tol, masked_norm)
from .testfn import theorem1_certificate
from . import __version__ as _pkg_version
from .serialize import dumps_canonical, sanitize, write_csv, write_json, write_jsonl

SANDWICH_SLACK = 1e-9
REQUIRED = inspect.Parameter.empty
NOT_OBJECTS = "a sweep config and its grid must be JSON objects"


def parse_alpha(text) -> Fraction:
    """An exact rational from 'p/r', 'p', a decimal or a number."""
    return Fraction(str(text))


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
    """A sweep request, checked however it was made (ValueError if bad); every
    grid value is a list and the grid keys are the command's parameters."""

    command: str
    grid: dict
    tol: float = DEFAULT_TOL
    seed: int = DEFAULT_SEED
    out_dir: str = "."
    threads: int | None = None

    def __post_init__(self):
        if not isinstance(self.grid, dict):
            raise ValueError(NOT_OBJECTS)
        self.tol, self.seed = _real("tol", self.tol), _integer("seed", self.seed)
        if self.threads is not None:
            self.threads = _integer("threads", self.threads)
            if self.threads < 1:
                raise ValueError(f"threads must be at least 1, got {self.threads}")
        self.command, self.out_dir = str(self.command), str(self.out_dir)
        if self.command not in _RUNNERS:
            raise ValueError(f"command {self.command!r} is not sweepable; "
                             f"choose from {sorted(_RUNNERS)}")
        params = parameters(self.command)
        for key in self.grid:
            if key not in params:
                raise ValueError(f"unknown {self.command} grid key {key!r}; "
                                 f"the keys are {', '.join(params)}")
        for key, default in params.items():
            if default is REQUIRED and key not in self.grid:
                raise ValueError(f"{self.command} grid lacks the required key {key!r}")
        check_tol(self.tol)
        self.grid = {k: list(v) if isinstance(v, (list, tuple)) else [v]
                     for k, v in self.grid.items()}

    @classmethod
    def from_json(cls, d) -> "SweepSpec":
        if not isinstance(d, dict):
            raise ValueError(NOT_OBJECTS)
        keys = [f.name for f in fields(cls)]
        for key in sorted(d.keys() - keys):
            raise ValueError(f"unknown sweep config key {key!r}; "
                             f"the keys are {', '.join(keys)}")
        if "command" not in d:
            raise ValueError("sweep config lacks the required key 'command'")
        return cls(**{"grid": {}, **d})


@dataclass
class RunRecord:
    spec_hash: str
    command: str
    rows: list
    paths: dict

    def _count(self, status: str) -> int:
        return sum(r["status"] == status for r in self.rows)

    n_ok = property(lambda self: self._count("ok"))
    n_skipped = property(lambda self: self._count("skipped"))
    n_failed = property(lambda self: self._count("failed"))
    failed = property(lambda self: self.n_failed > 0)


def _expand(grid: dict) -> list[dict]:
    keys = sorted(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


# --- per-command point runners; each returns (flat_row, detail) -------------


def _integer(name: str, value) -> int:
    """value as an int; a non-integral value is a bad parameter."""
    try:
        exact = Fraction(value)
    except (TypeError, ValueError):
        exact = None
    if exact is None or exact.denominator != 1:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(exact)


def _real(name: str, value) -> float:
    """value as a float; anything float() refuses is a bad parameter."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {value!r}") from None


def build_mask(M, alphabet, k, alpha) -> CantorSet:
    """C_k in Z_{M^k} dilated by alpha into Z_N, N = alpha M^k."""
    M, k = _integer("M", M), _integer("k", k)
    return dilate(cantor_elements(parse_alphabet_spec(M, alphabet), k), parse_alpha(alpha))


def _point_beta(M, alphabet, k, alpha=1, method="lanczos", *, tol, seed):
    mask = build_mask(M, alphabet, k, alpha)
    cert = masked_norm(mask, mask, mask.N, tol=tol, seed=seed, method=method)
    rep = beta_k(cert, mask.alphabet, mask.k) if mask.alpha == 1 else beta_dilated(cert, mask)
    if not (rep.lower_theory - SANDWICH_SLACK <= rep.beta_k
            <= rep.upper_theory + SANDWICH_SLACK):
        raise ArithmeticError(
            f"exponent {rep.beta_k} violates the sandwich "
            f"[{rep.lower_theory}, {rep.upper_theory}]")
    row = {"M": rep.M, "alphabet": str(alphabet), "k": rep.k, "N": rep.N,
           "delta": rep.delta, "alpha": str(mask.alpha), "sigma": cert.sigma_max,
           "beta_k": rep.beta_k, "lower_theory": rep.lower_theory,
           "upper_theory": rep.upper_theory, "method": cert.method,
           "iterations": cert.iterations, "residual": cert.residual}
    return row, {"exponents": rep, "norm": cert}


_BETA_COLS = ["M", "alphabet", "k", "N", "delta", "alpha", "sigma", "beta_k",
              "lower_theory", "upper_theory", "method", "iterations", "residual"]


def _point_theorem1(M, delta, k, grid=100_000, ysamples=20_001,
                    method="lanczos", *, tol, seed):
    M, k, delta = _integer("M", M), _integer("k", k), _real("delta", delta)
    rep = theorem1_certificate(
        M, delta, k, grid_points=_integer("grid", grid), tol=tol, seed=seed,
        method=method, y_samples=_integer("ysamples", ysamples))
    ex = rep.exponents
    row = {"M": M, "delta": delta, "k": k, "N": ex.N, "sigma": ex.sigma_max,
           "beta_k": ex.beta_k, "z_certified_lower": rep.z.z_certified_lower,
           "beta_upper_certified": rep.beta_upper_certified,
           "beta_bound_theory": rep.beta_bound_theory,
           "beta_bound_ok": rep.beta_bound_ok, "binding": rep.binding}
    return row, rep


_T1_COLS = ["M", "delta", "k", "N", "sigma", "beta_k", "z_certified_lower",
            "beta_upper_certified", "beta_bound_theory", "beta_bound_ok", "binding"]


def _point_theorem2(M, Mdelta, k, alpha, eps=0.0, outer_grid=200_000,
                    method="lanczos", *, tol, seed):
    rep = theorem2_report(
        _integer("M", M), _integer("Mdelta", Mdelta), _integer("k", k),
        parse_alpha(alpha), eps=_real("eps", eps), tol=tol, seed=seed, method=method,
        outer_grid=_integer("outer_grid", outer_grid))
    row = {"M": rep.M, "Mdelta": rep.Mdelta, "k": rep.k, "alpha": str(rep.alpha),
           "N": rep.N, "q": rep.approx.q, "gamma": rep.gamma,
           "sigma": rep.norm.sigma_max, "beta_kN": rep.exponents.beta_k,
           "target_exponent": rep.target_exponent, "eps_emp": rep.eps_emp,
           "G_upper": rep.bounds.G_upper, "C_fit": rep.C_fit}
    return row, rep


_T2_COLS = ["M", "Mdelta", "k", "alpha", "N", "q", "gamma", "sigma", "beta_kN",
            "target_exponent", "eps_emp", "G_upper", "C_fit"]


def _point_dirichlet(M, Mdelta, alpha, regime="strict", **solver):
    """Runs no solver, so ignores tol and seed."""
    M, Mdelta = _integer("M", M), _integer("Mdelta", Mdelta)
    alpha = parse_alpha(alpha)
    ra = best_rational(alpha, M, Mdelta, regime=regime)
    row = {"M": M, "Mdelta": Mdelta, "alpha": str(alpha),
           "b": ra.b, "q": ra.q, "gamma": ra.gamma,
           "approx_error": f"{ra.error.numerator}/{ra.error.denominator}",
           "strict_ok": ra.strict_ok, "nonstrict_ok": ra.nonstrict_ok}
    return row, ra


_DIR_COLS = ["M", "Mdelta", "alpha", "b", "q", "gamma", "approx_error",
             "strict_ok", "nonstrict_ok"]


def _point_baker(N, M, alphabet, cutoff="bump", nmax=64, eps=0.0,
                 method="lanczos", *, tol, seed):
    N, M = _integer("N", N), _integer("M", M)
    letters = parse_alphabet_spec(M, alphabet)
    profile = make_cutoff(str(cutoff), N // M)
    n_max = _integer("nmax", nmax)
    rep = gelfand_bound(BakerMap(N, M, letters, profile), n_max=n_max, tol=tol,
                        seed=seed, eps=_real("eps", eps), method=method)
    comp = rep.comparison or {}
    alpha = comp.get("alpha")
    alpha_str = None if alpha is None else f"{alpha.numerator}/{alpha.denominator}"
    row = {"N": N, "M": M, "alphabet": str(alphabet),
           "cutoff": profile.kind, "nmax": n_max,
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


def parameters(command: str) -> dict:
    """Name -> default of the operation's parameters, in order: the
    arguments its runner declares before `*` (REQUIRED where it has none)."""
    runner, _ = _RUNNERS[command]
    return {p.name: p.default for p in inspect.signature(runner).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD}


def run_sweep(spec: SweepSpec) -> RunRecord:
    """Execute every grid point and persist results under spec.out_dir.

    Points run concurrently but results are collected and written in grid
    order, so output bytes do not depend on the thread count.
    """
    runner, cols = _RUNNERS[spec.command]
    points = _expand(spec.grid)
    spec_hash = hashlib.sha256(dumps_canonical(spec).encode()).hexdigest()
    t0 = time.monotonic()

    def run_point(p):
        try:
            row, detail = runner(**p, tol=spec.tol, seed=spec.seed)
            return {"status": "ok", "error": None, "point": p, **row,
                    "detail": sanitize(detail)}
        except (ValueError, CapacityError) as err:
            return {"status": "skipped", "error": str(err), "point": p}
        except (ArithmeticError, ConvergenceError) as err:
            return {"status": "failed", "error": str(err), "point": p}

    workers = spec.threads or 1
    if workers > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_point, points))
    else:
        rows = [run_point(p) for p in points]

    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = RunRecord(spec_hash, spec.command, rows, paths={
        "results": str(out / "results.jsonl"), "summary": str(out / "summary.csv"),
        "meta": str(out / "run_meta.json")})
    write_jsonl(record.paths["results"], rows)
    header = cols + ["status", "error"]
    write_csv(record.paths["summary"], header,
              [[r.get(c) for c in cols] + [r["status"], r.get("error")]
               for r in rows])
    write_json(record.paths["meta"], {
        "spec": spec,
        "spec_hash": spec_hash,
        "elapsed_s": time.monotonic() - t0,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__,
                     "package": _pkg_version},
        "counts": {"ok": record.n_ok, "skipped": record.n_skipped,
                   "failed": record.n_failed},
    })
    return record
