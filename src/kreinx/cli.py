"""Command-line entry point: verify / spectrum / resolvent / green / oracle.

Each ``cmd_*`` handler computes its table and returns
``(schema, columns, summary, code)``, passing its arrays as they are:
the float64 columns of ``resolvent``, ``green`` and ``oracle``, and the
charge columns of ``spectrum``; ``verify`` transposes its rows.
``main`` parses with one parser per process, runs the handler, writes
the one CSV (stdout by default, or --output FILE) and then prints the
one-line summary to stderr.  A config is read as bytes, which
``parse_config`` decodes as UTF-8 only if orjson refuses them.  Exit
codes: 0 success, 2 config or validation failure (an unreadable or
non-UTF-8 config included), 3 numeric failure (no root bracketed,
degenerate oracle, tolerance breach, non-finite output).  ``verify`` and ``oracle`` take a
non-negative --seed, 0 by default; ``spectrum`` and ``resolvent`` draw
nothing at random and sample no grid, so argparse rejects a --seed or
--grid there (exit 2).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import build_problem, parse_config
from .csvio import emit_csv
from .errors import (
    BranchCut,
    CsvWriteError,
    InvariantError,
    KreinxError,
    SchemaError,
)
from .greens import g0, gz, renormalized_diagonal
from .krein import ExtensionProblem, krein_apply
from .matrixmodel import MatrixEvaluator, direct_eigs, random_model, random_theta
from .spectral import _branch_values, scan_spectrum
from .verify import run_verification

_VALIDATION_ERRORS = (SchemaError, InvariantError, BranchCut)


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise InvariantError([f"cannot parse complex number from {text!r}"])


def _summary(text: str) -> None:
    print(text, file=sys.stderr)


def _load_config(args):
    try:
        # parse_config decodes the bytes only when orjson refuses them
        return parse_config(Path(args.config).read_bytes())
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise SchemaError([f"cannot read config {args.config}: {reason}"])


def cmd_verify(args):
    report = run_verification(args.seed, models=args.models)
    failed = sum(1 for c in report.checks if not c.passed)
    summary = (
        f"verify: {len(report.checks)} checks, {failed} failed, seed={args.seed}, "
        f"{report.model_summary}"
    )
    code = 0 if report.passed else 3
    columns = list(zip(*report.rows())) or [()] * 4
    return ["check", "residual", "tolerance", "pass"], columns, summary, code


def cmd_spectrum(args):
    cfg = _load_config(args)
    if args.a is not None or args.b is not None:
        if cfg.scan is None and (args.a is None or args.b is None):
            raise InvariantError(["--a and --b are both required without a scan window"])
        cfg = cfg.with_scan(a=args.a, b=args.b)
    if cfg.scan is None:
        raise InvariantError(["spectrum needs a scan window (config 'scan' or --a/--b)"])
    problem = build_problem(cfg, nodes=False)
    report = scan_spectrum(problem, (cfg.scan.a, cfg.scan.b))
    n = problem.theta.n
    schema = (
        ["root_index", "z0", "energy", "multiplicity", "residual"]
        + [f"Q_re_{j + 1}" for j in range(n)]
        + [f"Q_im_{j + 1}" for j in range(n)]
    )
    roots = report.roots
    charges = np.array([root.charge for root in roots]).reshape(len(roots), n)
    columns = [
        range(len(roots)), [r.z0 for r in roots], [r.energy for r in roots],
        [r.multiplicity for r in roots], [r.residual for r in roots],
        *charges.real.T, *charges.imag.T,
    ]
    summary = (
        f"spectrum: {len(report.roots)} roots in [{cfg.scan.a:g}, {cfg.scan.b:g}], "
        f"{len(report.warnings)} warnings"
    )
    return schema, columns, summary, 0 if roots else 3


def cmd_resolvent(args):
    cfg = _load_config(args)
    if args.z is not None:  # checked by build_problem like the config z
        cfg = replace(cfg, z=_parse_complex(args.z))
    # these read only cfg, so a request they reject builds nothing
    if cfg.z is None:
        raise InvariantError(["resolvent needs z (config 'z' or --z)"])
    if cfg.f is None:
        raise InvariantError(["resolvent needs an input vector 'f' in the config"])
    if cfg.backend == "laplacian1d" and cfg.grid1d is None:
        raise InvariantError(["laplacian1d resolvent needs 'grid1d' in the config"])
    if cfg.backend not in ("matrix", "laplacian1d"):
        raise InvariantError(
            [f"resolvent supports the matrix and laplacian1d backends, not {cfg.backend!r}"]
        )
    problem = build_problem(cfg)
    result = krein_apply(problem, cfg.z, cfg.f)  # every backend casts f to complex
    if cfg.backend == "matrix":
        nodes, label = range(cfg.f.size), "index"
        where = f"matrix backend, n={problem.evaluator.model.n}"
    else:
        nodes, label = problem.evaluator.xs, "x"
        where = f"laplacian1d backend, {nodes.size} nodes"
    schema = [label, "f_re", "f_im", "rf_re", "rf_im"]
    columns = [nodes, cfg.f.real, cfg.f.imag, result.real, result.imag]
    return schema, columns, f"resolvent: {where}, z={cfg.z}", 0


def cmd_green(args):
    z = _parse_complex(args.z)
    try:
        radii = [float(r) for r in args.radii.split(",") if r.strip()]
    except ValueError:
        raise InvariantError([f"cannot parse --radii {args.radii!r}"])
    viols = []
    if not cmath.isfinite(z):
        viols.append(f"--z must be finite, got {z}")
    if not radii:
        viols.append("--radii must list at least one radius")
    elif not all(map(cmath.isfinite, radii)):
        viols.append("--radii entries must be finite")
    elif min(radii) <= 0.0:
        viols.append("--radii entries must be > 0")
    if viols:
        raise InvariantError(viols)
    renorm = complex(renormalized_diagonal(args.dim, z))
    r = np.array(radii)
    gzv = gz(args.dim, r, z)
    columns = [r, g0(args.dim, r), gzv.real, gzv.imag,
               [renorm.real] * r.size, [renorm.imag] * r.size]
    schema = ["r", "g0", "gz_re", "gz_im", "renorm_re", "renorm_im"]
    return schema, columns, f"green: dim={args.dim}, z={z}, {len(radii)} radii", 0


def cmd_oracle(args):
    viols = [] if args.seed >= 0 else [f"--seed must be >= 0, got {args.seed}"]
    if not 1 <= args.ncharges <= args.n:
        viols.append("need 1 <= ncharges <= n")
    if viols:
        raise InvariantError(viols)
    rng = np.random.default_rng(args.seed)
    model = random_model(rng, args.n, args.ncharges)
    theta = random_theta(rng, args.ncharges)
    eigs = direct_eigs(model, theta)

    problem = ExtensionProblem(MatrixEvaluator(model), theta)
    defect = 0.0
    checked = 0
    for v in eigs:
        if model.spectrum_distance(v) > 1e-6 * (1.0 + float(np.max(np.abs(model.eigs)))):
            _, values = _branch_values(problem, float(v))
            defect = max(defect, float(np.min(np.abs(values))))
            checked += 1
    summary = (
        f"oracle: seed={args.seed}, n={args.n}, N={args.ncharges}, "
        f"trace bound c={model.trace_bound_constant:.6g}, "
        f"max pencil defect over {checked} eigenvalues={defect:.3e}"
    )
    return ["index", "eigenvalue"], [range(eigs.size), eigs], summary, 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinx",
        description="Rank-N singular perturbations: spectra, resolvents, kernels, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--models", type=int, default=20)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="locate resolvent poles on a real interval")
    p.add_argument("--config", required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("resolvent", help="apply the perturbed resolvent to a vector")
    p.add_argument("--config", required=True)
    p.add_argument("--z", default=None)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_resolvent)

    p = sub.add_parser("green", help="tabulate the free kernels to CSV")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--radii", default="0.1,0.2,0.5,1,2,5,10")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("oracle", help="seeded random model: direct spectrum table")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--ncharges", type=int, default=2)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        schema, columns, summary, code = args.func(args)
        emit_csv(columns, schema, sys.stdout if args.output == "-" else args.output)
    except _VALIDATION_ERRORS as exc:
        _summary(f"error: {exc}")
        return 2
    except CsvWriteError as exc:
        _summary(f"output error: {exc}")
        return 3
    except KreinxError as exc:
        _summary(f"numeric failure: {exc}")
        return 3
    _summary(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
