"""Command-line front end.

Machine results are JSON with an embedded run manifest; sweeps and
sampling runs emit CSV with the manifest in '#'-prefixed header lines.
Exit codes: 0 success, 2 usage error, 3 not certifiable / infeasible,
4 solver error.

A sweep writes one row per (kappa, algorithm) in both modes: value is nan
where no certificate is found or the one that is fails verification, and
lower_bound is the fundamental rate lower bound in rate mode and nan in h2
mode, since it bounds rates, not noise levels.
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .algorithms import (SectorBounds, load_algorithm, make_named,
                         save_algorithm, to_json_dict)
from .engines import (BisectionConfig, certify_h2, certify_rate,
                      fundamental_lower_bound, synthesize_bmi, synthesize_convex)
from .errors import ArgumentError, DomainError, IqcError, NotCertifiable, SolverError
from .multipliers import ZamesFalbStructure
from .sampling import sample_function, simulate_h2
from .sdp import SolverOptions

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CERTIFIABLE = 3
EXIT_SOLVER = 4


def _solver_options() -> SolverOptions:
    """The solver options, with both tolerances from IQC_SOLVER_TOL when it
    is set; a value that is not a finite number >= 0 raises ArgumentError."""
    tol = os.environ.get("IQC_SOLVER_TOL")
    try:
        return SolverOptions(tol_abs=float(tol), tol_rel=float(tol)) if tol else SolverOptions()
    except ValueError:      # not a number, or a tolerance SolverOptions refuses
        raise ArgumentError(f"IQC_SOLVER_TOL must be a finite number >= 0, not {tol!r}") from None


def _manifest(args, solver_opts: SolverOptions, drop=()) -> dict:
    """The run manifest: the command, its parameters but ``drop``, the tool
    version and the solver options."""
    return {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k not in ("func", *drop)},
        "tool_version": __version__,
        "solver_options": {"tol_abs": solver_opts.tol_abs,
                           "tol_rel": solver_opts.tol_rel,
                           "max_iters": solver_opts.max_iters},
    }


def _json_command(result):
    """The command whose result dict ``result(args, opts, bounds)`` computes.

    The command reads the solver options and the bounds, times the run,
    and prints the result under its manifest as JSON, to -o as well.
    """
    def run(args) -> int:
        opts = _solver_options()
        bounds = SectorBounds(args.m, args.L)
        t0 = time.time()
        payload = {"result": result(args, opts, bounds),
                   "manifest": {**_manifest(args, opts),
                                "seconds": round(time.time() - t0, 6)}}
        text = json.dumps(payload, indent=1, sort_keys=True)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        print(text)
        return EXIT_OK

    return run


def _emit_csv(args, solver_opts: SolverOptions, header, rows) -> None:
    """Print the rows as CSV under the manifest in '#' lines, or write them
    to -o; the manifest leaves out -o and the run time, so reruns are
    byte-identical."""
    manifest = _manifest(args, solver_opts, drop=("output",))
    lines = [f"# {k}={json.dumps(v, sort_keys=True)}" for k, v in sorted(manifest.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _load_algo(spec: str, bounds: SectorBounds, p: int):
    """The algorithm ``spec`` names; a file: path that cannot be read, is
    not UTF-8 JSON, lacks an entry or holds one the library refuses raises
    ArgumentError naming the path."""
    if not spec.startswith("file:"):
        return make_named(spec, bounds, p)
    try:
        return load_algorithm(spec[5:])
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError, IqcError) as e:
        raise ArgumentError(f"algorithm file {spec[5:]}: {type(e).__name__}: {e}") from None


def _check_output(path) -> None:
    """ArgumentError unless an output path names a file in a directory that
    exists, so a run whose result cannot be written is refused before it
    starts."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ArgumentError(f"cannot write {path}: not a file in an existing directory")


def _structure(args, rho=1.0) -> ZamesFalbStructure:
    return ZamesFalbStructure(args.lc, args.la, args.p, args.klass, rho)


def _design(args, res, **fields) -> dict:
    """A synthesis command's result: the design's rho, gamma, algorithm and
    ``fields``. The algorithm is also written to --out when it is given."""
    if args.out:
        save_algorithm(res.algo, args.out)
    return {"rho": res.rho, "gamma": res.gamma, "algorithm": to_json_dict(res.algo), **fields}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@_json_command
def cmd_analyze_rate(args, opts, bounds) -> dict:
    algo = _load_algo(args.algo, bounds, args.p)
    res = certify_rate(algo, bounds, _structure(args),
                       BisectionConfig(tol=args.tol), opts)
    cert = res.certificate
    return {
        "rho": res.value,
        "certificate_digest": _digest({"P": np.round(cert.P, 12).tolist(),
                                       "M": [Mi.tolist() for Mi in cert.zf.M]}),
        "solves": res.solves,
        "seconds": res.seconds,
        "bracket": list(res.bracket),
    }


@_json_command
def cmd_analyze_h2(args, opts, bounds) -> dict:
    algo = _load_algo(args.algo, bounds, args.p)
    res = certify_h2(algo, bounds, _structure(args), options=opts)
    return {"gamma": res.value, "solves": res.solves, "seconds": res.seconds}


@_json_command
def cmd_synth_convex(args, opts, bounds) -> dict:
    res = synthesize_convex(args.n, args.p, bounds, args.rho, with_perf=args.perf,
                            structure=_structure(args, args.rho), options=opts)
    return _design(args, res)


@_json_command
def cmd_synth_bmi(args, opts, bounds) -> dict:
    res = synthesize_bmi(args.n, args.p, bounds, args.target_rho, optimize=args.optimize,
                         structure=_structure(args, args.target_rho), options=opts)
    return _design(args, res,
                   initializer_rho=res.initializer_rho,
                   iterations=[[tag, r, g] for tag, r, g in res.iterations],
                   solves=res.solves)


def cmd_sample_h2(args) -> int:
    if args.runs < 1:
        raise DomainError(f"--runs must be a positive integer, got {args.runs}")
    if args.seed < 0:   # SeedSequence takes no negative entropy
        raise DomainError(f"--seed must be a nonnegative integer, got {args.seed}")
    opts = _solver_options()
    bounds = SectorBounds(args.m, args.L)
    algo = _load_algo(args.algo, bounds, args.p)
    rows = []
    for i in range(args.runs):
        seed = args.seed + i
        # independent streams for the objective and the noise of one run
        objective_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
        spec = sample_function(bounds, args.p, args.kind,
                               np.random.default_rng(np.random.PCG64(objective_seed)))
        run = simulate_h2(algo, spec, args.steps, args.realizations, noise_seed)
        rows.append([args.algo, args.kind, args.m, args.L, seed, args.steps,
                     args.realizations, repr(run.estimate)])
    _emit_csv(args, opts, ["algo", "kind", "m", "L", "seed", "k_max", "N", "estimate"], rows)
    return EXIT_OK


def _parse_grid(spec: str):
    """The grid a KIND:LO:HI:NUM spec names; ArgumentTypeError if it names none.

    KIND is log or lin, LO and HI finite numbers >= 1, since kappa = L/m
    >= 1, and NUM a positive integer.
    """
    try:
        kind, lo, hi, num = spec.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{spec!r} is not KIND:LO:HI:NUM") from None
    if (kind not in ("log", "lin") or num < 1 or not np.isfinite([lo, hi]).all()
            or min(lo, hi) < 1):
        raise argparse.ArgumentTypeError(f"{spec!r}: KIND must be log or lin, LO and HI "
                                         "finite and >= 1, NUM >= 1")
    return (np.geomspace if kind == "log" else np.linspace)(lo, hi, num)


def _grid_spec(spec: str) -> str:
    """--kappa-grid's type: the spec itself, once it parses to a grid."""
    _parse_grid(spec)
    return spec


def cmd_sweep(args) -> int:
    opts = _solver_options()
    grid = _parse_grid(args.kappa_grid)
    algos = args.algos.split(",")
    rate = args.mode == "rate"
    rows = []
    for kappa in grid:
        bounds = SectorBounds(args.m, args.m * float(kappa))
        for name in algos:
            algo = make_named(name, bounds, args.p)
            st = _structure(args)
            # a refusal, by the LMIs or by the reporting gate, is one nan row
            try:
                value = (certify_rate(algo, bounds, st, BisectionConfig(tol=args.tol), opts)
                         if rate else certify_h2(algo, bounds, st, options=opts)).value
            except (NotCertifiable, SolverError):
                value = float("nan")
            bound = fundamental_lower_bound(bounds) if rate else float("nan")
            rows.append([f"{kappa:.6g}", name, args.mode, repr(value), f"{bound:.12g}"])
    _emit_csv(args, opts, ["kappa", "algo", "mode", "value", "lower_bound"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="iqcopt",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, algo=True, mult=True, grid=False):
        if algo:
            p.add_argument("--algo", required=True,
                           help="gd|nm|nm-mod|tmm|hb|file:<path>")
        if grid:    # the kappa grid sets L = kappa m
            p.add_argument("--m", type=float, default=1.0)
        else:
            p.add_argument("--m", type=float, required=True)
            p.add_argument("--L", type=float, required=True)
        p.add_argument("--p", type=int, default=1)
        if mult:
            p.add_argument("--lc", type=int, default=1)
            p.add_argument("--la", type=int, default=0)
            p.add_argument("--klass", default="unstructured",
                           choices=["unstructured", "repeated", "nonrepeated"])
        p.add_argument("-o", "--output", default=None,
                       help="write the output to this file; the JSON commands print it "
                       "too, sample-h2 and sweep do not")

    p = sub.add_parser("analyze-rate", help="certify the smallest decay rate")
    common(p)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_analyze_rate)

    p = sub.add_parser("analyze-h2", help="certify a noise-amplification level")
    common(p)
    p.set_defaults(func=cmd_analyze_h2)

    p = sub.add_parser("synth-convex", help="convex algorithm design")
    common(p, algo=False)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--perf", action="store_true",
                   help="also minimize the noise-amplification level")
    p.add_argument("--out", default=None, help="write the algorithm JSON here")
    p.set_defaults(func=cmd_synth_convex)

    p = sub.add_parser("synth-bmi", help="alternating BMI design")
    common(p, algo=False)
    p.add_argument("--target-rho", type=float, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--optimize", choices=["rate", "h2"], default="h2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth_bmi)

    p = sub.add_parser("sample-h2", help="empirical lower bounds by simulation")
    common(p, mult=False)
    p.add_argument("--runs", type=int, default=10, help="number of sampled objectives")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--realizations", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=["quadratic", "cosine"], default="cosine")
    p.set_defaults(func=cmd_sample_h2)

    p = sub.add_parser("sweep", help="grid sweeps over the condition ratio")
    common(p, algo=False, grid=True)
    p.add_argument("--mode", choices=["rate", "h2"], default="rate")
    p.add_argument("--algos", default="gd,nm,tmm")
    p.add_argument("--kappa-grid", type=_grid_spec, default="log:1.02:1000:25",
                   help="KIND:LO:HI:NUM, KIND log or lin, LO and HI >= 1")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        _check_output(args.output)
        _check_output(getattr(args, "out", None))
        return args.func(args)
    except NotCertifiable as e:
        print(json.dumps({"error": "not-certifiable", "detail": str(e)}))
        return EXIT_NOT_CERTIFIABLE
    except SolverError as e:
        print(json.dumps({"error": "solver", "detail": str(e)}))
        return EXIT_SOLVER
    except IqcError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
