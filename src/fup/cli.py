"""Command-line driver.

Subcommands mirror the library surface: cantor / norm / beta for set
construction and masked norms, theorem1 / theorem2 / dirichlet for the
certified bound pipelines, baker for spectral-radius reports, sweep for
parameter grids, and plot for SVG rendering of sweep results. All emit
canonical JSON (to stdout or --out). Exit codes: 0 success, 1 a certified
invariant failed or an iteration did not converge, 2 bad parameters or out
of memory.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .baker import CutoffProfile, build_baker, gelfand_bound, make_cutoff
from .cantor import CapacityError, cantor_elements, dilate, rational_to_json
from .diophantine import best_rational, theorem2_report
from .spectral import ConvergenceError, beta_dilated, beta_k, masked_norm
from .serialize import dumps_canonical
from .svgplot import emit_plot
from .sweep import SweepSpec, parse_alpha, parse_alphabet_spec, run_sweep
from .testfn import theorem1_certificate

ELEMENT_PRINT_CAP = 4096


def _tol(args) -> float:
    return 1e-10 if args.tol is None else args.tol


def _seed(args) -> int:
    return 0 if args.seed is None else args.seed


def _emit(obj, args) -> None:
    text = dumps_canonical(obj)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _build_masks(args):
    alphabet = parse_alphabet_spec(args.M, args.alphabet)
    cantor = cantor_elements(alphabet, args.k)
    alpha = parse_alpha(args.alpha) if args.alpha else Fraction(1)
    if alpha == 1:
        return alphabet, cantor, None, alphabet.M**args.k, alpha
    dil = dilate(cantor, alpha)
    return alphabet, cantor, dil, dil.N, alpha


def cmd_cantor(args) -> int:
    alphabet, cantor, dil, N, alpha = _build_masks(args)
    elements = dil.elements if dil is not None else cantor.elements
    payload = {
        "M": alphabet.M,
        "alphabet": list(alphabet.letters),
        "delta": alphabet.delta,
        "k": args.k,
        "alpha": rational_to_json(alpha),
        "N": N,
        "size": len(elements),
        "elements": list(elements) if len(elements) <= ELEMENT_PRINT_CAP else None,
        "elements_omitted": len(elements) > ELEMENT_PRINT_CAP,
    }
    _emit(payload, args)
    return 0


def cmd_norm(args) -> int:
    alphabet, cantor, dil, N, alpha = _build_masks(args)
    mask = dil if dil is not None else cantor
    cert = masked_norm(mask, mask, N, tol=_tol(args), seed=_seed(args),
                       method=args.method)
    _emit({"M": alphabet.M, "k": args.k, "N": N,
           "alpha": rational_to_json(alpha), "size": len(mask.elements),
           "norm": cert.to_json()}, args)
    return 0


def cmd_beta(args) -> int:
    alphabet, cantor, dil, N, alpha = _build_masks(args)
    mask = dil if dil is not None else cantor
    cert = masked_norm(mask, mask, N, tol=_tol(args), seed=_seed(args),
                       method=args.method)
    rep = beta_dilated(cert, dil) if dil is not None else beta_k(cert, alphabet, args.k)
    _emit({"alpha": rational_to_json(alpha), "exponents": rep.to_json(),
           "norm": cert.to_json()}, args)
    return 0


def cmd_theorem1(args) -> int:
    rep = theorem1_certificate(args.M, args.delta, args.k,
                               grid_points=args.grid, tol=_tol(args),
                               seed=_seed(args), method=args.method,
                               y_samples=args.ysamples)
    _emit(rep.to_json(), args)
    if args.svg:
        emit_plot([{"status": "ok", "M": args.M, "delta": args.delta}],
                  "profile", args.svg)
    return 0


def cmd_theorem2(args) -> int:
    rep = theorem2_report(args.M, args.Mdelta, args.k, parse_alpha(args.alpha),
                          eps=args.eps, tol=_tol(args), seed=_seed(args),
                          method=args.method, outer_grid=args.outer_grid)
    _emit(rep.to_json(), args)
    return 0


def cmd_dirichlet(args) -> int:
    ra = best_rational(parse_alpha(args.alpha), args.M, args.Mdelta,
                       regime=args.regime)
    _emit({"M": args.M, "Mdelta": args.Mdelta,
           "alpha": rational_to_json(parse_alpha(args.alpha)),
           "approx": ra.to_json()}, args)
    return 0


def cmd_baker(args) -> int:
    alphabet = parse_alphabet_spec(args.M, args.alphabet)
    W = args.N // args.M
    if args.cutoff in ("bump", "smooth-bump", "sharp"):
        cutoff = make_cutoff(args.cutoff, W)
    else:
        samples = np.loadtxt(args.cutoff, delimiter=",", ndmin=1)
        cutoff = CutoffProfile("custom", samples)
    bmap = build_baker(args.N, args.M, alphabet, cutoff)
    rep = gelfand_bound(bmap, n_max=args.nmax, tol=_tol(args), seed=_seed(args),
                        eps=args.eps, method=args.method)
    _emit(rep.to_json(), args)
    return 0


def cmd_sweep(args) -> int:
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    spec = SweepSpec.from_json(config)
    # flags win over the config file
    if args.out:
        spec.out_dir = args.out
    if args.threads is not None:
        spec.threads = args.threads
    if args.tol is not None:
        spec.tol = args.tol
    if args.seed is not None:
        spec.seed = args.seed
    record = run_sweep(spec)
    print(dumps_canonical({"spec_hash": record.spec_hash,
                           "ok": record.n_ok, "skipped": record.n_skipped,
                           "failed": record.n_failed, "paths": record.paths}))
    return 1 if record.failed else 0


def cmd_plot(args) -> int:
    rows = []
    with open(args.input, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    emit_plot(rows, args.kind, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed for iterative solvers (default 0)")
    common.add_argument("--tol", type=float, default=None,
                        help="solver tolerance (default 1e-10)")
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads for sweeps (default FUP_THREADS or 1)")
    common.add_argument("--out", type=str, default=None,
                        help="output file (JSON) or directory (sweep)")

    parser = argparse.ArgumentParser(
        prog="fup",
        description="Finite uncertainty principles for Cantor-set masked DFTs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("cantor", cmd_cantor, "construct (and optionally dilate) a Cantor set")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--alphabet", required=True,
                   help='letters "0,2" or "interval:0.75" or "initial:4"')
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", default=None, help='dilation "p/r" (default 1)')

    for name, fn, txt in [("norm", cmd_norm, "masked submatrix norm certificate"),
                          ("beta", cmd_beta, "finite-k uncertainty exponent")]:
        p = add(name, fn, txt)
        p.add_argument("--M", type=int, required=True)
        p.add_argument("--alphabet", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--alpha", default=None)
        p.add_argument("--method", default="lanczos",
                       choices=["lanczos", "power-iteration", "dense-svd"])

    p = add("theorem1", cmd_theorem1, "certified lower-bound pipeline")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid", type=int, default=100_000)
    p.add_argument("--ysamples", type=int, default=20_001)
    p.add_argument("--method", default="lanczos",
                   choices=["lanczos", "power-iteration", "dense-svd"])
    p.add_argument("--svg", default=None, help="also write a profile SVG here")

    p = add("theorem2", cmd_theorem2, "dilated upper-bound comparison")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--Mdelta", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", required=True, help='dilation "p/r"')
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--outer-grid", dest="outer_grid", type=int, default=200_000)
    p.add_argument("--method", default="lanczos",
                   choices=["lanczos", "power-iteration", "dense-svd"])

    p = add("dirichlet", cmd_dirichlet, "best rational approximation of alpha/M")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--Mdelta", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--regime", default="strict", choices=["strict", "nonstrict"])

    p = add("baker", cmd_baker, "open baker's map spectral-radius report")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--cutoff", default="bump",
                   help="bump | sharp | path to CSV samples")
    p.add_argument("--nmax", type=int, default=64)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--method", default="lanczos",
                   choices=["lanczos", "power-iteration"])

    p = add("sweep", cmd_sweep, "run a parameter grid from a JSON config")
    p.add_argument("--config", required=True)

    p = add("plot", cmd_plot, "render sweep results to SVG")
    p.add_argument("--kind", required=True,
                   choices=["beta-vs-k", "gap-vs-N", "profile"])
    p.add_argument("--input", required=True, help="results.jsonl path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "plot" and not args.out:
        parser.error("plot requires --out")
    try:
        return args.fn(args)
    except (ValueError, CapacityError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 2
    except (ArithmeticError, ConvergenceError) as err:
        print(f"computation failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
