"""The four benchmark workloads and the checks on their outputs.

A workload is a fixed list of operations ("reports"), each a call into
`fup`'s public API with the solver seed taken from the benchmark's --seed.
`build` makes the inputs (alphabets, Cantor sets, cutoff profiles, baker
maps); that work counts as set-up. Every operation has a check that compares
its output with an independent computation from `oracles` or with a property
the method must have, and returns a list of problems (empty when correct).

Each workload has a full size, which the benchmark measures, and a tiny
smoke size, which serves as the warm-up before timing and as the smoke test.
Operations whose first call at full size costs more than later ones (FFT
set-up at a new length, the allocator adapting to arrays of that size) also
carry a `warm` step: one operator application at full size, run in set-up.
"""
from __future__ import annotations

import math
import xml.etree.ElementTree as ET
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# fup's functions are looked up through their modules at call time, so the
# traced run's wrappers (tracing.py) see these calls
import fup
from fup import svgplot
from fup.sweep import parse_alphabet_spec

import oracles

WORKLOADS = ("cantor-depth", "dilated-theorem2", "baker-gelfand", "sweep-grid")

TOL = 1e-10
SANDWICH_SLACK = 1e-9
SIGMA_AGREE = 1e-9          # |sigma - dense SVD|, sigma <= 1
SUBMULT_SLACK = 1e-8        # sigma_k <= sigma_k1 sigma_k2 (1 + slack)
POWER_SLACK = 1e-9          # ||B^n|| <= 1 and u_2n <= u_n^2 + slack
DENSE_SIGMA_MAX = 625       # dense SVD check for |C_k| up to this size
DENSE_BAKER_MAX = 729       # dense baker oracle for N up to this size

CANTOR = {
    "full": [(4, "0,3", 9), (4, "0,3", 10), (3, "0,2", 11), (3, "0,2", 12),
             (5, "1,2,3", 7), (8, "interval:0.75", 4)],
    "smoke": [(4, "0,3", 3), (3, "0,2", 4), (8, "interval:0.75", 2)],
}
THEOREM2 = {
    "full": [(16, 4, 4, Fraction(5)), (16, 4, 3, Fraction(3, 2)), (64, 8, 2, Fraction(7))],
    "smoke": [(16, 4, 2, Fraction(5)), (16, 4, 2, Fraction(3, 2))],
}
THEOREM2_GRIDS = {"full": {}, "smoke": {"outer_grid": 2000, "sk_grid": 256}}
BAKER = {
    "full": [(4096, 8, "interval:0.75", "bump", 64), (3125, 5, "1,2,3", "bump", 64),
             (6561, 3, "0,2", "bump", 8), (6561, 3, "0,2", "sharp", 64),
             (729, 9, "initial:3", "bump", 64), (256, 4, "0,3", "bump", 64)],
    "smoke": [(81, 3, "0,2", "bump", 8), (81, 9, "initial:3", "bump", 8),
              (64, 4, "0,3", "sharp", 4)],
}
SWEEPS = {
    "full": [
        ("theorem1-k1", "theorem1", {"M": [16, 32, 64], "delta": [0.6, 0.75, 0.9], "k": 1}),
        ("theorem1-k2", "theorem1", {"M": [16, 64], "delta": [0.75, 0.9], "k": 2}),
        ("beta-interval", "beta", {"M": [4, 9, 16], "alphabet": ["interval:0.75", "interval:0.9"],
                                   "k": [1, 2, 3]}),
        ("beta-digits", "beta", {"M": [3, 4, 5], "alphabet": "0,2", "k": [1, 2, 3, 4],
                                 "method": ["dense-svd", "power-iteration"]}),
        ("dirichlet", "dirichlet", {"M": [16, 64, 256], "Mdelta": 4,
                                    "alpha": [1, "3/2", 5, 7, "11/3"]}),
        ("baker", "baker", {"N": [81, 243, 729], "M": 3, "alphabet": "0,2", "nmax": [8, 64]}),
    ],
    "smoke": [
        ("theorem1-k1", "theorem1", {"M": 16, "delta": [0.75, 0.9], "k": 1,
                                     "grid": 2000, "ysamples": 2001}),
        ("beta-interval", "beta", {"M": 4, "alphabet": "interval:0.75", "k": [1, 2]}),
        ("beta-digits", "beta", {"M": [3, 4], "alphabet": "0,2", "k": [1, 2],
                                 "method": ["dense-svd", "power-iteration"]}),
        ("dirichlet", "dirichlet", {"M": 16, "Mdelta": 4, "alpha": [1, 5]}),
        ("baker", "baker", {"N": [27, 81], "M": 3, "alphabet": "0,2", "nmax": 4}),
    ],
}
# the sweep whose outputs are re-made with two threads and compared byte for byte
THREAD_CHECKED = "beta-digits"
PLOTTED = ("beta-interval", "beta-digits")


@dataclass
class Op:
    """One report: run(ctx) returns its output, check(output, ctx) lists
    what is wrong with it. ctx holds the round's scratch directory under
    "dir" and the outputs of the round's earlier operations by name."""

    name: str
    run: Callable
    check: Callable
    warm: Callable = lambda: None


class Memo:
    """Reference values, computed once per process on first use."""

    def __init__(self):
        self._values = {}

    def get(self, key, make):
        if key not in self._values:
            self._values[key] = make()
        return self._values[key]


def build(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The operations of one workload; builds their inputs as it goes."""
    memo = Memo()
    if workload == "cantor-depth":
        return [_cantor_op(M, spec, k, seed, memo) for M, spec, k in CANTOR[size]]
    if workload == "dilated-theorem2":
        return [_theorem2_op(M, Md, k, alpha, seed, THEOREM2_GRIDS[size], memo)
                for M, Md, k, alpha in THEOREM2[size]]
    if workload == "baker-gelfand":
        return [_baker_op(*params, seed, memo) for params in BAKER[size]]
    if workload == "sweep-grid":
        ops = [_sweep_op(name, command, grid, seed, memo) for name, command, grid in SWEEPS[size]]
        return ops + [_plot_op()]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _rng(seed: int, *key) -> np.random.Generator:
    """Generator for the checks' samples, fixed by the seed and the key."""
    return np.random.default_rng([seed, zlib.crc32(repr(key).encode())])


# --- cantor-depth ------------------------------------------------------------


def _sigma_ref(memo, M, letters, k):
    def make():
        C = oracles.cantor_set(M, letters, k)
        return oracles.top_singular_value(C, C, M**k)
    return memo.get(("sigma", M, letters, k), make)


def cantor_problems(sigma: float, beta: float, M: int, letters, k: int, memo) -> list[str]:
    """Sandwich, submultiplicativity against dense half-depth norms, and
    agreement with the dense norm when C_k is small."""
    problems = []
    delta = math.log(len(letters)) / math.log(M)
    beta_ref = -math.log(sigma) / (k * math.log(M))
    if abs(beta - beta_ref) > 1e-12:
        problems.append(f"beta_k {beta} != -log(sigma)/(k log M) = {beta_ref}")
    if not max(0.0, 0.5 - delta) - SANDWICH_SLACK <= beta_ref <= 0.5 - delta / 2 + SANDWICH_SLACK:
        problems.append(f"beta_k {beta_ref} outside [max(0, 1/2 - delta), 1/2 - delta/2]")
    if k >= 2:
        k1 = k // 2
        bound = _sigma_ref(memo, M, letters, k1) * _sigma_ref(memo, M, letters, k - k1)
        if sigma > bound * (1 + SUBMULT_SLACK):
            problems.append(f"sigma_{k} = {sigma} > sigma_{k1} sigma_{k - k1} = {bound}")
    if len(letters) ** k <= DENSE_SIGMA_MAX:
        ref = _sigma_ref(memo, M, letters, k)
        if abs(sigma - ref) > SIGMA_AGREE:
            problems.append(f"sigma {sigma!r} differs from dense SVD {ref!r}")
    return problems


def _cantor_op(M, spec, k, seed, memo) -> Op:
    alphabet = parse_alphabet_spec(M, spec)
    cantor = fup.cantor_elements(alphabet, k)
    letters = oracles.letters_from_spec(M, spec)

    def run(ctx):
        cert = fup.masked_norm(cantor, cantor, M**k, tol=TOL, seed=seed)
        return cert, fup.beta_k(cert, alphabet, k)

    def warm():
        apply, dim = fup.masked_gram_apply(cantor, cantor, M**k)
        apply(np.ones(dim, dtype=np.complex128))

    def check(out, ctx):
        cert, rep = out
        problems = []
        if not np.array_equal(np.asarray(cantor.elements), oracles.cantor_set(M, letters, k)):
            problems.append("C_k differs from the digit enumeration")
        if rep.sigma_max != cert.sigma_max:
            problems.append("report and certificate disagree on sigma")
        return problems + cantor_problems(cert.sigma_max, rep.beta_k, M, letters, k, memo)

    return Op(f"norm M={M} A={spec} k={k}", run, check, warm)


# --- dilated-theorem2 --------------------------------------------------------


def theorem2_problems(rep, M, Md, k, alpha, seed, memo) -> list[str]:
    problems = []
    b, q = oracles.best_fraction(alpha, M, Md)
    if (rep.approx.b, rep.approx.q) != (b, q):
        problems.append(f"(b, q) = ({rep.approx.b}, {rep.approx.q}), exhaustive search "
                        f"gives ({b}, {q})")
    G = rep.bounds
    rhs = 12 * Md / M * (Md / q + math.log(q))
    if not G.G_grid <= G.G_upper <= rhs:
        problems.append(f"G_grid {G.G_grid} <= G_upper {G.G_upper} <= {rhs} fails")
    g_low = memo.get(("g_low", M, Md, alpha), lambda: oracles.g_lower_estimate(
        M, Md, alpha, _rng(seed, "g", M, Md, alpha)))
    if g_low > G.G_upper:
        problems.append(f"sampled G {g_low} exceeds G_upper {G.G_upper}")
    if G.S_k_grid is not None and G.S_k_grid > G.G_upper ** k:
        problems.append(f"S_k {G.S_k_grid} > G_upper^k {G.G_upper ** k}")

    def dense():
        base = oracles.cantor_set(M, tuple(range(Md)), k)
        N = int(alpha * M**k)
        p, r = alpha.numerator, alpha.denominator
        elems = (p * base + r - 1) // r
        return oracles.top_singular_value(elems, elems, N)
    ref = memo.get(("sigma-dilated", M, Md, k, alpha), dense)
    if abs(rep.norm.sigma_max - ref) > SIGMA_AGREE:
        problems.append(f"dilated sigma {rep.norm.sigma_max!r} differs from dense SVD {ref!r}")
    return problems


def _theorem2_op(M, Md, k, alpha, seed, grids, memo) -> Op:
    def run(ctx):
        return fup.theorem2_report(M, Md, k, alpha, tol=TOL, seed=seed, **grids)

    def check(rep, ctx):
        return theorem2_problems(rep, M, Md, k, alpha, seed, memo)

    return Op(f"theorem2 M={M} Mdelta={Md} k={k} alpha={alpha}", run, check)


# --- baker-gelfand -----------------------------------------------------------


def baker_problems(powers, rho_upper, N, M, spec, cutoff, n_max, memo) -> list[str]:
    """Contraction, submultiplicativity of the reported powers, and for
    small N the dense oracle: rho_upper >= spectral radius and every
    reported power >= the dense ||B^n||_2."""
    problems = []
    u = {int(n): float(v) for n, v in powers}
    schedule = [2**j for j in range(int(math.log2(n_max)) + 1)]
    if sorted(u) != schedule:
        problems.append(f"powers at n = {sorted(u)}, expected {schedule}")
    for n, un in u.items():
        if un > 1 + POWER_SLACK:
            problems.append(f"||B^{n}|| estimate {un} > 1")
        if 2 * n in u and u[2 * n] > un * un + POWER_SLACK:
            problems.append(f"u_{2 * n} = {u[2 * n]} > u_{n}^2 = {un * un}")
    if N <= DENSE_BAKER_MAX:
        def dense():
            letters = oracles.letters_from_spec(M, spec)
            B = oracles.dense_baker(N, M, letters, oracles.cutoff_samples(cutoff, N // M))
            return oracles.baker_reference(B, n_max)
        rho, norms = memo.get(("baker", N, M, spec, cutoff, n_max), dense)
        if rho_upper < rho * (1 - POWER_SLACK):
            problems.append(f"rho_upper {rho_upper} < dense spectral radius {rho}")
        for n, un in u.items():
            if n in norms and un < norms[n] * (1 - POWER_SLACK) - 1e-14:
                problems.append(f"u_{n} = {un} < dense ||B^{n}|| = {norms[n]}")
    return problems


def _baker_op(N, M, spec, cutoff, n_max, seed, memo) -> Op:
    bmap = fup.BakerMap(N, M, parse_alphabet_spec(M, spec), fup.make_cutoff(cutoff, N // M))

    def run(ctx):
        return fup.gelfand_bound(bmap, n_max=n_max, tol=TOL, seed=seed)

    def check(rep, ctx):
        return baker_problems(rep.powers, rep.rho_upper, N, M, spec, cutoff, n_max, memo)

    def warm():
        bmap.gram_apply(np.ones(N, dtype=np.complex128))

    return Op(f"gelfand N={N} M={M} A={spec} {cutoff} nmax={n_max}", run, check, warm)


# --- sweep-grid --------------------------------------------------------------


def _grid_size(grid: dict) -> int:
    return math.prod(len(v) if isinstance(v, list) else 1 for v in grid.values())


def sweep_problems(name, command, grid, record, seed, memo) -> list[str]:
    problems = []
    expected = _grid_size(grid)
    if (record.n_ok, record.n_skipped, record.n_failed) != (expected, 0, 0):
        problems.append(f"{record.n_ok} ok, {record.n_skipped} skipped, {record.n_failed} "
                        f"failed of {expected} points")
    lines = Path(record.paths["results"]).read_bytes().splitlines()
    csv_lines = Path(record.paths["summary"]).read_bytes().splitlines()
    if len(lines) != expected or len(csv_lines) != expected + 1:
        problems.append("results.jsonl or summary.csv has the wrong number of lines")
    for row in record.rows:
        if row["status"] != "ok":
            continue
        if command == "theorem1":
            M, delta = row["M"], row["delta"]
            letters = oracles.letters_from_spec(M, f"interval:{delta}")
            y = _rng(seed, "y", M, delta).random(64) / M
            z = float(oracles.band_mass(oracles.gaussian_seed_values(M, letters), letters, y).min())
            if row["z_certified_lower"] > z + 1e-12:
                problems.append(f"M={M} delta={delta}: z_certified_lower "
                                f"{row['z_certified_lower']} > sampled band mass {z}")
        elif command == "beta" and row["method"] != "lanczos":
            M, k = row["M"], row["k"]
            letters = oracles.letters_from_spec(M, row["alphabet"])
            ref = _sigma_ref(memo, M, letters, k)
            if abs(row["sigma"] - ref) > SIGMA_AGREE:
                problems.append(f"{row['method']} M={M} k={k}: sigma {row['sigma']!r} "
                                f"differs from dense SVD {ref!r}")
        elif command == "dirichlet":
            b, q = oracles.best_fraction(Fraction(row["alpha"]), row["M"], row["Mdelta"])
            if (row["b"], row["q"]) != (b, q):
                problems.append(f"M={row['M']} alpha={row['alpha']}: (b, q) = "
                                f"({row['b']}, {row['q']}), exhaustive search gives ({b}, {q})")
        elif command == "baker":
            d = row["detail"]
            problems += baker_problems(d["powers"], d["rho_upper"], row["N"], row["M"],
                                       row["alphabet"], "sharp" if row["cutoff"] == "sharp"
                                       else "bump", row["nmax"], memo)
    if name == THREAD_CHECKED:
        out = Path(record.paths["results"]).parent.with_name(f"{name}-threads2")
        fup.run_sweep(fup.SweepSpec(command, grid, tol=TOL, seed=seed, out_dir=str(out),
                                    threads=2))
        for fname in ("results.jsonl", "summary.csv"):
            if (out / fname).read_bytes() != (Path(record.paths["results"]).parent
                                              / fname).read_bytes():
                problems.append(f"{fname} differs between 1 and 2 threads")
    return problems


def _sweep_op(name, command, grid, seed, memo) -> Op:
    def run(ctx):
        spec = fup.SweepSpec(command, grid, tol=TOL, seed=seed, out_dir=str(ctx["dir"] / name))
        return fup.run_sweep(spec)

    def check(record, ctx):
        return sweep_problems(name, command, grid, record, seed, memo)

    return Op(f"sweep {name}", run, check)


def _plotted_rows(ctx) -> list:
    return [row for name in PLOTTED for row in ctx[f"sweep {name}"].rows]


def _plot_op() -> Op:
    def run(ctx):
        path = ctx["dir"] / "beta-vs-k.svg"
        svgplot.emit_plot(_plotted_rows(ctx), "beta-vs-k", path)
        return path

    def check(path, ctx):
        try:
            root = ET.fromstring(Path(path).read_bytes())
        except ET.ParseError as err:
            return [f"SVG does not parse as XML: {err}"]
        points = sum(1 for row in _plotted_rows(ctx) if row["status"] == "ok")
        circles = sum(1 for el in root.iter() if el.tag.endswith("circle"))
        if not root.tag.endswith("svg") or circles != points:
            return [f"SVG root {root.tag} with {circles} markers for {points} rows"]
        return []

    return Op("emit_plot beta-vs-k", run, check)
