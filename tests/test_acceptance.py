"""Acceptance suite.

One test per quantitative criterion. Each emits a single line

    criterion NN PASS: ...        (or FAIL)

on stdout; run with -s to see the lines for passing tests. Tolerances and
runtime caps are asserted, not just reported.
"""
import json
import math
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from fup.baker import BakerMap, gelfand_bound, make_cutoff
from fup.cantor import (build_alphabet_initial, build_alphabet_interval,
                        cantor_elements, dilate)
from fup.diophantine import (best_rational, canonical_dilation, f1_abs,
                             f1_eval, fk_eval, g_bound, sk_estimate,
                             theorem2_report)
from fup.jacobi import jacobi_svd
from fup.spectral import beta_k, dft_apply, dft_submatrix, masked_norm
from fup.svgplot import emit_plot
from fup.sweep import SweepSpec, parse_alphabet_spec, run_sweep
from fup.testfn import (band_masses, convolution_chain, gaussian_seed,
                        indicator_seed, theorem1_certificate,
                        verify_product_formula, verify_tail_bound,
                        z_certificate)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_dft_unitarity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for N in (8, 27, 64, 243, 1024, 4096):
        for _ in range(20):
            u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            nu = np.linalg.norm(u)
            worst = max(worst, abs(np.linalg.norm(dft_apply(u)) - nu) / nu)
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-12 and elapsed < 1.0,
            f"max relative norm drift {worst:.2e} over 6 sizes x 20 vectors "
            f"({elapsed:.2f}s < 1s)")


def _alphabets_up_to(M: int):
    """Representative alphabet family at modulus M, deduplicated by letters."""
    specs = ["0,1"]
    if M >= 3:
        specs.append(f"0,{M - 1}")
        if M**0.75 > 2.0:
            specs.append("interval:0.75")
    seen, out = set(), []
    for s in specs:
        a = parse_alphabet_spec(M, s)
        if a.letters not in seen:
            seen.add(a.letters)
            out.append(a)
    return out


def test_criterion_02_power_iteration_matches_dense_jacobi():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for M in range(2, 9):
        for a in _alphabets_up_to(M):
            for k in (1, 2, 3):
                N = M**k
                if N > 512:
                    continue
                c = cantor_elements(a, k)
                dense = jacobi_svd(dft_submatrix(c, c, N)).singular_values[0]
                it = masked_norm(c, c, N, tol=1e-9, seed=3,
                                 method="power-iteration").sigma_max
                worst = max(worst, abs(dense - it))
                cases += 1
    elapsed = time.perf_counter() - t0
    _report(2, worst <= 1e-8 and elapsed < 10.0,
            f"max |sigma_power - sigma_jacobi| = {worst:.2e} over {cases} "
            f"submatrices ({elapsed:.2f}s < 10s)")


def test_criterion_03_finite_k_sandwich():
    t0 = time.perf_counter()
    alphabets = []
    for M in (4, 9, 16):
        for d in (0.6, 0.75, 0.9):
            alphabets.append(build_alphabet_interval(M, d))
        for md in (2, int(round(math.sqrt(M)))):
            if md >= 2 and md * md <= M:
                a = build_alphabet_initial(M, md)
                if a.letters not in [b.letters for b in alphabets if b.M == M]:
                    alphabets.append(a)
    bad = []
    cases = 0
    for a in alphabets:
        for k in (1, 2, 3):
            c = cantor_elements(a, k)
            cert = masked_norm(c, c, a.M**k, tol=1e-10, seed=0)
            rep = beta_k(cert, a, k)
            cases += 1
            if not (rep.lower_theory - 1e-9 <= rep.beta_k
                    <= rep.upper_theory + 1e-9):
                bad.append(f"M={a.M} letters={a.letters} k={k}: "
                           f"beta={rep.beta_k}")
    elapsed = time.perf_counter() - t0
    _report(3, not bad and elapsed < 30.0,
            f"beta_k inside [max(0,1/2-delta), 1/2-delta/2] +-1e-9 for "
            f"{cases} (alphabet, k) pairs ({elapsed:.2f}s < 30s)"
            if not bad else "; ".join(bad[:3]))


def test_criterion_04_exact_small_case():
    A = dft_submatrix([0, 2], [0, 2], 3)
    evals = np.sort(np.linalg.eigvalsh(A.conj().T @ A))
    eig_dev = float(np.max(np.abs(evals - np.array([1 / 3, 1.0]))))
    c = cantor_elements(parse_alphabet_spec(3, "0,2"), 1)
    sig_dev = max(abs(masked_norm(c, c, 3, method=m).sigma_max - 1.0)
                  for m in ("lanczos", "power-iteration", "dense-svd"))
    _report(4, eig_dev <= 1e-12 and sig_dev <= 1e-10,
            f"M=3 A={{0,2}} k=1: Gram eigenvalues off {{1, 1/3}} by "
            f"{eig_dev:.2e}, sigma off 1 by {sig_dev:.2e} (all methods)")


def _seed_grid():
    """(seed, k) pairs shared by criteria 5-7: both alphabet types x both
    seed shapes, M <= 16, k <= 3."""
    out = []
    for M in (3, 4, 6, 8, 12, 16):
        alphabets = [build_alphabet_interval(M, 0.75)]
        md = int(math.isqrt(M))
        if md >= 2 and md * md <= M:
            alphabets.append(build_alphabet_initial(M, md))
        for a in alphabets:
            for seed in (indicator_seed(a), gaussian_seed(a)):
                for k in (1, 2, 3):
                    out.append((seed, k))
    return out


def test_criterion_05_product_formula():
    worst = 0.0
    cases = 0
    for seed, k in _seed_grid():
        dev = verify_product_formula(convolution_chain(seed, k))
        worst = max(worst, dev / seed.norm1**k)
        cases += 1
    _report(5, worst <= 1e-10,
            f"max |F u_k - prod G_f| / ||f||_1^k = {worst:.2e} over "
            f"{cases} (seed, k) cases")


def test_criterion_06_comb_identity():
    rng = np.random.default_rng(606)
    worst = 0.0
    cases = 0
    for seed, k in _seed_grid():
        if k != 1:
            continue
        y = rng.uniform(0.0, 1.0, 100)
        mass = band_masses(seed, range(seed.M), y)
        worst = max(worst, float(np.max(np.abs(mass - seed.norm_sq)))
                    / seed.norm_sq)
        cases += 1
    _report(6, worst <= 1e-10,
            f"max |sum_l |G_f(l/M+y)|^2 - ||f||^2| / ||f||^2 = {worst:.2e} "
            f"over {cases} seeds x 100 offsets")


def test_criterion_07_chain_norm_and_support():
    worst = 0.0
    support_ok = True
    cases = 0
    for seed, k in _seed_grid():
        chain = convolution_chain(seed, k)
        nsq = float(np.vdot(chain.u, chain.u).real)
        ref = seed.norm_sq**k
        worst = max(worst, abs(nsq - ref) / ref)
        support_ok &= set(np.flatnonzero(chain.u)) <= set(chain.cantor.elements)
        cases += 1
    _report(7, worst <= 1e-10 and support_ok,
            f"max | ||u_k||^2 - ||f||^2k | relative = {worst:.2e}, "
            f"supp u_k inside C_k exactly, over {cases} cases")


def test_criterion_08_chain_inequality():
    bad = []
    for M in (16, 64):
        for d in (0.6, 0.75, 0.9):
            fn = gaussian_seed(build_alphabet_interval(M, d)).normalized()
            zc = z_certificate(fn, 100_000)
            if zc.z_certified_lower > zc.z_grid_min:
                bad.append(f"M={M} d={d}: enclosure inverted")
            z_lo = max(zc.z_certified_lower, 0.0)
            for k in (1, 2, 3):
                chain = convolution_chain(fn, k)
                spec = np.fft.fft(chain.u, norm="ortho")
                lhs = float(np.sum(
                    np.abs(spec[np.array(chain.cantor.elements)]) ** 2))
                if lhs < z_lo**k - 1e-12:
                    bad.append(f"M={M} d={d} k={k}: {lhs} < {z_lo**k}")
    _report(8, not bad,
            "||1_C F u_k||^2 >= z_certified_lower^k - 1e-12 for "
            "M in {16,64}, delta in {0.6,0.75,0.9}, k <= 3"
            if not bad else "; ".join(bad[:3]))


def test_criterion_09_tail_bound():
    t0 = time.perf_counter()
    rows = []
    ok = True
    for M in (64, 256):
        for d in (0.6, 0.75):
            lhs, rhs = verify_tail_bound(M, d)
            formula = 60.0 / math.sqrt(M) * math.exp(
                -(math.pi / 4.0) * M ** (2 * d - 1))
            ok &= lhs <= formula and abs(rhs - formula) <= 1e-15 * formula
            rows.append(f"({M},{d}): {lhs:.2e} <= {formula:.2e}")
    elapsed = time.perf_counter() - t0
    _report(9, ok and elapsed < 30.0,
            f"off-band mass under 60 M^-1/2 exp(-(pi/4) M^(2d-1)): "
            f"{'; '.join(rows)} ({elapsed:.2f}s < 30s)")


def test_criterion_10_theorem1_desk_scale():
    t0 = time.perf_counter()
    # at delta=0.9 the closed-form tail envelope (~2e-9) sits below grid
    # resolution, so the report is non-binding by design and warns
    with pytest.warns(UserWarning, match="non-binding"):
        rep = theorem1_certificate(64, 0.9, 2)
    elapsed = time.perf_counter() - t0
    bound = 170.0 * math.exp(-(math.pi / 4.0) * 64**0.8)
    ok = (rep.beta_bound_ok
          and rep.norm.residual <= 1e-10
          and rep.exponents.beta_k <= bound + 1e-6
          and elapsed < 120.0)
    _report(10, ok,
            f"M=64 delta=0.9 k=2: beta_2 = {rep.exponents.beta_k:.3e} <= "
            f"170 exp(-(pi/4) 64^0.8) + 1e-6 = {bound + 1e-6:.3e}, "
            f"residual {rep.norm.residual:.1e} <= 1e-10 "
            f"({elapsed:.1f}s < 120s)")


def _oracle_best_rational(alpha: Fraction, M: int, Mdelta: int):
    """Exhaustive max-q admissible approximation under the strict regime."""
    x = alpha / M
    best = None
    for q in range(1, Mdelta + 1):
        for b in range(0, q + 1):
            if not (b == 0 and q == 1) and gcd(b, q) != 1:
                continue
            err = abs(x - Fraction(b, q))
            if err >= Fraction(1, q * Mdelta):
                continue
            if best is None or q > best[0] or (q == best[0]
                                               and (err, b) < (best[1], best[2])):
                best = (q, err, b)
    return best


def test_criterion_11_dirichlet_solver():
    t0 = time.perf_counter()
    bad = []
    cases = 0
    for M in (4, 9, 16, 25):
        Mdelta = int(math.isqrt(M))
        seen = set()
        for r in (1, 2, 3, 4):
            for p in range(r, r * M):
                alpha = Fraction(p, r)
                if alpha >= M or alpha in seen:
                    continue
                seen.add(alpha)
                ra = best_rational(alpha, M, Mdelta, regime="strict")
                oracle = _oracle_best_rational(alpha, M, Mdelta)
                cases += 1
                err = abs(alpha / M - Fraction(ra.b, ra.q))
                if not (ra.strict_ok
                        and err < Fraction(1, ra.q * Mdelta)
                        and oracle is not None and ra.q == oracle[0]):
                    bad.append(f"M={M} alpha={alpha}: got q={ra.q}, "
                               f"oracle {oracle}")
    elapsed = time.perf_counter() - t0
    _report(11, not bad and elapsed < 5.0,
            f"strict-regime (b,q) matches exhaustive max-q search on "
            f"{cases} (M, alpha) pairs ({elapsed:.2f}s < 5s)"
            if not bad else "; ".join(bad[:3]))


def test_criterion_12_g_upper_vs_proposition():
    t0 = time.perf_counter()
    bad = []
    rows = []
    for M in (16, 64):
        Mdelta = int(math.isqrt(M))
        for alpha in (Fraction(1), Fraction(3, 2), Fraction(5), Fraction(7)):
            ra = best_rational(alpha, M, Mdelta, regime="strict")
            rhs = 12.0 * (Mdelta / M) * (Mdelta / ra.q + math.log(ra.q))
            gb = g_bound(M, Mdelta, alpha)
            rows.append(f"(M={M},a={alpha}): {gb.G_upper:.3f} <= {rhs:.3f}")
            if gb.G_upper > rhs + 1e-12:
                bad.append(rows[-1])
    elapsed = time.perf_counter() - t0
    _report(12, not bad and elapsed < 60.0,
            f"certified G_upper under 12 M^(d-1)(M^d/q + log q): "
            f"{'; '.join(rows)} ({elapsed:.1f}s < 60s)"
            if not bad else "; ".join(bad[:3]))


def test_criterion_13_exponential_sum_identities():
    rng = np.random.default_rng(1313)
    M, L = 9, 3
    a = build_alphabet_initial(M, L)
    chains = {k: cantor_elements(a, k) for k in (1, 2, 3, 4)}
    worst_rec = 0.0
    for k in (2, 3, 4):
        x = rng.uniform(-2.0, 2.0, 1000)
        lhs = fk_eval(chains[k], x)
        rhs = f1_eval(L, x) * fk_eval(chains[k - 1], M * x)
        worst_rec = max(worst_rec, float(np.max(np.abs(lhs - rhs))))

    worst_bound = 0.0
    for L2 in (2, 3, 4, 8, 16):
        x = rng.uniform(-2.0, 2.0, 10_000)
        frac = np.mod(x, 1.0)
        dist = np.minimum(frac, 1.0 - frac)
        with np.errstate(divide="ignore"):
            cap = np.minimum(1.0, 1.0 / (L2 * dist))
        worst_bound = max(worst_bound,
                          float(np.max(f1_abs(L2, x) - cap)))
    _report(13, worst_rec <= 1e-12 and worst_bound <= 1e-12,
            f"F_k recursion off by {worst_rec:.2e} (10^3 x, k <= 4); "
            f"|F_1| over its envelope by {worst_bound:.2e} (10^4 x)")


def test_criterion_14_sk_under_g_power():
    bad = []
    cases = []
    gcache = {}
    for M, Mdelta in ((4, 2), (16, 4)):
        a = build_alphabet_initial(M, Mdelta)
        for k in (2, 3):
            for alpha in (Fraction(1), Fraction(3, 2), Fraction(5)):
                N = alpha * M**k
                assert N.denominator == 1
                ap, kp = canonical_dilation(int(N), M)
                key = (M, ap)
                if key not in gcache:
                    gcache[key] = g_bound(M, Mdelta, ap, outer_grid=100_000)
                gu = gcache[key].G_upper
                sk = sk_estimate(cantor_elements(a, kp), ap, grid=4096)
                cases.append(f"(M={M},a={ap},k={kp})")
                if sk > gu**kp + 1e-9:
                    bad.append(f"{cases[-1]}: S_k {sk:.4f} > G^k {gu**kp:.4f}")
    _report(14, not bad,
            f"grid S_k <= G_upper^k for {len(cases)} canonicalized "
            f"(M, alpha, k) cases" if not bad else "; ".join(bad[:3]))


def test_criterion_15_dilation_raises_exponent():
    t0 = time.perf_counter()
    rep1 = theorem2_report(16, 4, 3, Fraction(1))
    rep5 = theorem2_report(16, 4, 3, Fraction(5))
    elapsed = time.perf_counter() - t0
    b1, b5 = rep1.exponents.beta_k, rep5.exponents.beta_k
    ok = (b5 > b1 and rep5.gamma > 0.39 and rep1.gamma == 0.0
          and elapsed < 300.0)
    _report(15, ok,
            f"M=16 Mdelta=4 k=3: beta(alpha=5) = {b5:.4f} > "
            f"beta(alpha=1) = {b1:.4f}; eps_emp = {rep5.eps_emp:+.4f} "
            f"(alpha=5), {rep1.eps_emp:+.4f} (alpha=1) ({elapsed:.1f}s < 300s)")


def test_criterion_16_baker_unitary_control_and_contraction():
    t0 = time.perf_counter()
    rows = []
    ok = True
    for M, N in ((3, 27), (4, 64)):
        full = parse_alphabet_spec(M, ",".join(str(l) for l in range(M)))
        rep = gelfand_bound(BakerMap(N, M, full, make_cutoff("sharp", N // M)),
                            n_max=8)
        ok &= abs(rep.rho_upper - 1.0) <= 1e-10
        ok &= all(abs(u - 1.0) <= 1e-9 for _, u in rep.powers)
        rows.append(f"sharp Z_{M}: rho = {rep.rho_upper:.12f}")

    bmap = BakerMap(243, 3, parse_alphabet_spec(3, "0,2"),
                       make_cutoff("bump", 81))
    rep = gelfand_bound(bmap, n_max=64)
    ok &= rep.rho_upper < 1.0
    sched = dict(rep.powers)
    for n, u in rep.powers:
        if 2 * n in sched:
            ok &= sched[2 * n] <= u * u + 1e-9
    rows.append(f"bump M=3 A={{0,2}} N=243: rho = {rep.rho_upper:.5f} < 1, "
                f"submultiplicative across {sorted(sched)}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _report(16, ok, "; ".join(rows) + f" ({elapsed:.1f}s < 120s)")


def test_criterion_17_byte_identical_artifacts(tmp_path):
    spec_json = {"command": "beta",
                 "grid": {"M": 3, "alphabet": "0,2", "k": [1, 2, 3, 4]}}
    blobs = []
    for name in ("r1", "r2"):
        spec = SweepSpec.from_json({**spec_json,
                                    "out_dir": str(tmp_path / name)})
        rec = run_sweep(spec)
        assert rec.n_ok == 4
        blobs.append(tuple((tmp_path / name / f).read_bytes()
                           for f in ("results.jsonl", "summary.csv")))
    rows = [json.loads(line) for line in
            (tmp_path / "r1" / "results.jsonl").read_text().splitlines()]
    svgs = []
    for name in ("p1.svg", "p2.svg"):
        emit_plot(rows, "beta-vs-k", str(tmp_path / name))
        svgs.append((tmp_path / name).read_bytes())
    ok = blobs[0] == blobs[1] and svgs[0] == svgs[1]
    b1 = rows[0]["beta_k"]
    _report(17, ok and abs(b1) <= 1e-9,
            f"repeated beta sweep (M=3, k<=4) byte-identical in JSONL, CSV, "
            f"and SVG; beta_1 = {b1:.1e} at the sigma=1 point")
