"""Command-line driver.

Subcommands mirror the library surface: cantor / norm / beta for set
construction and masked norms, theorem1 / theorem2 / dirichlet for the
certified bound pipelines, baker for spectral-radius reports, sweep for
parameter grids, and plot for SVG rendering of sweep results. All emit
canonical JSON (to stdout or --out). The sweepable subcommands (beta,
theorem1, theorem2, dirichlet, baker) take their flags from the signature of
the sweep's runner for their command and call it, so a flag left unset takes
the runner's default; norm and cantor take beta's flags (cantor without
--method). Exit codes: 0 success, 1 a certified invariant failed or an
iteration did not converge, 2 bad parameters or out of memory.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .cantor import CapacityError
from .spectral import DEFAULT_SEED, DEFAULT_TOL, ConvergenceError, masked_norm
from .serialize import dumps_canonical
from .svgplot import KINDS, emit_plot
from .sweep import _RUNNERS, REQUIRED, SweepSpec, build_mask, parameters, run_sweep

ELEMENT_PRINT_CAP = 4096
SOLVER_FLAGS = ("tol", "seed")


def _emit(obj, args) -> None:
    text = dumps_canonical(obj)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _given(args, keys) -> dict:
    return {key: getattr(args, key) for key in keys if key in args}


def _params(args) -> dict:
    """The operation's parameters: each flag's value, or its runner default."""
    return _given(args, parameters(args.op))


def _solver(args) -> dict:
    return {"tol": DEFAULT_TOL, "seed": DEFAULT_SEED, **_given(args, SOLVER_FLAGS)}


def cmd_cantor(args) -> int:
    mask = build_mask(**_params(args))
    alphabet = mask.alphabet
    size = mask.size
    payload = {
        "M": alphabet.M,
        "alphabet": list(alphabet.letters),
        "delta": alphabet.delta,
        "k": mask.k,
        "alpha": mask.alpha,
        "N": mask.N,
        "size": size,
        "elements": mask.elements if size <= ELEMENT_PRINT_CAP else None,
        "elements_omitted": size > ELEMENT_PRINT_CAP,
    }
    _emit(payload, args)
    return 0


def cmd_norm(args) -> int:
    params = _params(args)
    method = params.pop("method")
    mask = build_mask(**params)
    cert = masked_norm(mask, mask, mask.N, method=method, **_solver(args))
    _emit({"M": mask.alphabet.M, "k": mask.k, "N": mask.N, "alpha": mask.alpha,
           "size": mask.size, "norm": cert}, args)
    return 0


def _run(args):
    """(row, report) of the sweep runner for this subcommand."""
    runner, _ = _RUNNERS[args.command]
    return runner(**_params(args), **_solver(args))


def cmd_report(args) -> int:
    _emit(_run(args)[1], args)
    return 0


def cmd_beta(args) -> int:
    row, detail = _run(args)
    _emit({"alpha": Fraction(row["alpha"]), **detail}, args)
    return 0


def cmd_theorem1(args) -> int:
    row, report = _run(args)
    _emit(report, args)
    if args.svg:
        emit_plot([{"status": "ok", "M": row["M"], "delta": row["delta"]}],
                  "profile", args.svg)
    return 0


def cmd_dirichlet(args) -> int:
    row, ra = _run(args)
    _emit({"M": row["M"], "Mdelta": row["Mdelta"], "alpha": Fraction(row["alpha"]),
           "approx": ra}, args)
    return 0


def cmd_sweep(args) -> int:
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if isinstance(config, dict):  # flags win over the config file
        config.update(_given(args, SOLVER_FLAGS + ("threads",)))
        if args.out:
            config["out_dir"] = args.out
    record = run_sweep(SweepSpec.from_json(config))
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
    common.add_argument("--out", type=str, default=None,
                        help="output file (JSON) or directory (sweep)")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=f"RNG seed for iterative solvers (default {DEFAULT_SEED})")
    solver.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help=f"solver tolerance (default {DEFAULT_TOL})")

    parser = argparse.ArgumentParser(
        prog="fup",
        description="Finite uncertainty principles for Cantor-set masked DFTs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, parents=(solver,), op=None, without=()):
        """Subcommand `name`, with a flag for each parameter of the sweep
        operation `op` but those in `without`."""
        p = sub.add_parser(name, parents=[common, *parents], help=help_text)
        p.set_defaults(fn=fn, op=op)
        for key, default in (parameters(op) if op else {}).items():
            if key in without:
                continue
            flag = "--" + key.replace("_", "-")
            if default is REQUIRED:
                p.add_argument(flag, required=True)
            else:
                p.add_argument(flag, default=default, help="default: %(default)s")
        return p

    add("cantor", cmd_cantor, "construct (and optionally dilate) a Cantor set",
        parents=(), op="beta", without=("method",))
    add("norm", cmd_norm, "masked submatrix norm certificate", op="beta")
    add("beta", cmd_beta, "finite-k uncertainty exponent", op="beta")
    p = add("theorem1", cmd_theorem1, "certified lower-bound pipeline", op="theorem1")
    p.add_argument("--svg", default=None, help="also write a profile SVG here")
    add("theorem2", cmd_report, "dilated upper-bound comparison", op="theorem2")
    add("dirichlet", cmd_dirichlet, "best rational approximation of alpha/M",
        parents=(), op="dirichlet")
    add("baker", cmd_report, "open baker's map spectral-radius report", op="baker")

    p = add("sweep", cmd_sweep, "run a parameter grid from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                   help="worker threads (default: the config's threads, else 1)")

    p = add("plot", cmd_plot, "render sweep results to SVG", parents=())
    p.add_argument("--kind", required=True, choices=KINDS)
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
