"""JSON-shaped problem configuration: parsing and validation.

Complex scalars are written as ``[re, im]`` pairs (plain numbers are
accepted on input for real values).  ``theta``, ``matrix.a``,
``matrix.tau`` and ``f`` are read-only arrays, float64 if every entry is
a plain float, else complex128, so configs compare by identity.  A
config passes two phases, and each raises one error carrying every
violation it found:

* ``parse_config`` is the schema phase.  It checks the JSON shape
  (unknown or missing keys, wrong types, ragged rows) and raises only
  SchemaError.  A block that is present needs its required keys:
  ``matrix.a`` and ``matrix.tau``, ``scan.a`` and ``scan.b``, and
  ``grid1d.lo``, ``grid1d.hi`` and ``grid1d.n``.  A block that belongs
  to another backend is an error: ``matrix`` off the matrix backend,
  ``points`` on it, ``symbol`` off ``multiplier1d``, and ``grid1d`` (the
  trapezoid grid of the 1-d resolvent) off ``laplacian1d``.  The key
  ``scan.grid`` of older configs is checked (an integer of at least 3)
  and then dropped: the scan samples no grid, but committed configs and
  workloads still send one.
* ``build_problem`` is the semantic phase.  It builds the coupling
  matrix, the backend object and the ExtensionProblem once each and
  returns the ExtensionProblem.  It raises one InvariantError that
  collects every constructor's error (a non-hermitian theta, coincident
  or overflowing points, a singular base matrix, a size mismatch, a
  tolerance that is not positive and finite) together with the checks
  no constructor makes: the scan window (finite ends, ``a < b``, and
  ``a > 0`` for a Laplacian backend, whose essential spectrum is
  ``(-inf, 0]``), a finite ``z`` and ``f``, finite ``grid1d`` ends, a
  ``grid1d.n`` whose nodes fit in memory, and the length of ``f``
  against the base matrix or the ``grid1d`` nodes.

A window set through ``ProblemConfig.with_scan`` is checked by
``build_problem`` like one read from the file.

Two parsers read the text, and both give the same config.  The text is
a str or UTF-8 bytes, which orjson reads with no decode.  orjson reads
it first (several times faster than the stdlib on long numeric rows).
When orjson rejects the text, or the schema phase rejects what orjson
read, ``json.loads`` reads it again and the schema phase runs on that,
so every error message is the stdlib route's, and so is every config
only the stdlib reads: ``NaN`` and ``Infinity``, numbers beyond a double
(``1e400`` is infinite, ``10**400`` a schema error), the 4300-digit
integer limit, lone surrogates, and nesting deeper than the recursion
limit (a schema error).  Bytes are decoded as UTF-8 for the stdlib
route, so a BOM is a JSON error, as in a str, and bytes that are not
UTF-8 raise UnicodeDecodeError.  Where both parsers accept, they agree
but on integers beyond 64 bits, which orjson reads as the correctly rounded
double: every number field turns an integer into that same ``float``
(an array holding one is float64 on orjson's route if its other entries
are floats), and the two integer fields (``scan.grid``, ``grid1d.n``)
reject a float, which sends the text to the stdlib.
"""

from __future__ import annotations

import cmath
import json
import sys
from dataclasses import dataclass, replace
from operator import countOf
from typing import Optional

import numpy as np

from .errors import InvariantError, KreinxError, SchemaError
from .greens import LaplacianGrid1DEvaluator, LaplacianPointEvaluator, PointSet
from .krein import ExtensionProblem, ThetaMatrix
from .matrixmodel import MatrixEvaluator, MatrixModel
from .multiplier import Multiplier1D, MultiplierAnchoredEvaluator

BACKENDS = ("matrix", "laplacian1d", "laplacian2d", "laplacian3d", "multiplier1d")
_DIMS = {"laplacian1d": 1, "laplacian2d": 2, "laplacian3d": 3, "multiplier1d": 1}
_TOP_KEYS = {
    "backend", "matrix", "points", "symbol", "theta", "scan",
    "tolerances", "z", "f", "grid1d",
}


@dataclass(frozen=True)
class ScanWindow:
    a: float
    b: float


@dataclass(frozen=True)
class Grid1D:
    lo: float
    hi: float
    n: int


@dataclass(frozen=True, eq=False)
class ProblemConfig:
    backend: str
    theta: np.ndarray
    matrix_a: Optional[np.ndarray] = None
    matrix_tau: Optional[np.ndarray] = None
    points: Optional[tuple] = None
    symbol_poly: Optional[tuple] = None
    symbol_cos: tuple = ()
    symbol_anchor: Optional[float] = None
    scan: Optional[ScanWindow] = None
    tol_linear: float = ExtensionProblem.tol_linear
    tol_root: float = ExtensionProblem.tol_root
    z: Optional[complex] = None
    f: Optional[np.ndarray] = None
    grid1d: Optional[Grid1D] = None

    def with_scan(self, a=None, b=None) -> "ProblemConfig":
        base = self.scan or ScanWindow(a=0.0, b=0.0)
        new = ScanWindow(
            a=base.a if a is None else float(a),
            b=base.b if b is None else float(b),
        )
        return replace(self, scan=new)


def _is_number(v) -> bool:
    if type(v) is int:  # float() overflows beyond the largest float
        return abs(v) <= sys.float_info.max
    return isinstance(v, float)


def _complex_entry(v, path, errs) -> complex:
    if _is_number(v):
        return complex(float(v))
    if (
        isinstance(v, list)
        and len(v) == 2
        and all(_is_number(c) for c in v)
    ):
        return complex(float(v[0]), float(v[1]))
    errs.append(f"{path}: expected a number or [re, im] pair, got {v!r}")
    return 0j


def _float_entry(v, path, errs) -> float:
    if _is_number(v):
        return float(v)
    errs.append(f"{path}: expected a number, got {v!r}")
    return 0.0


def _int_entry(v, path, errs) -> int:
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    errs.append(f"{path}: expected an integer, got {v!r}")
    return 0


def _complex_array(rows, paths, errs) -> np.ndarray:
    """``rows`` as one read-only array: float64 if every entry is a plain
    float, else complex128, checked entry by entry under ``paths``."""
    if all(countOf(map(type, row), float) == len(row) for row in rows):
        out = np.array(rows, dtype=float)
    else:
        # the entry path is formatted only for an entry that needs checking
        out = np.array([
            [complex(c) if type(c) is float else _complex_entry(c, f"{path}[{j}]", errs)
             for j, c in enumerate(row)]
            for row, path in zip(rows, paths)
        ], dtype=complex)
    out.flags.writeable = False
    return out


def _complex_matrix(v, path, errs) -> Optional[np.ndarray]:
    if not (isinstance(v, list) and v and all(isinstance(r, list) for r in v)):
        errs.append(f"{path}: expected a nested list of rows, got {v!r}")
    elif len(widths := {len(r) for r in v}) != 1:
        errs.append(f"{path}: rows have unequal lengths {sorted(widths)}")
    else:
        return _complex_array(v, (f"{path}[{i}]" for i in range(len(v))), errs)
    return None


def _point_rows(v, dim, path, errs) -> tuple:
    if not isinstance(v, list) or not v:
        errs.append(f"{path}: expected a nonempty list of points")
        return ()
    rows = []
    for i, item in enumerate(v):
        if _is_number(item):
            if dim != 1:
                errs.append(f"{path}[{i}]: flat coordinates only valid in dim 1")
                return ()
            rows.append((float(item),))
        elif isinstance(item, list) and len(item) == dim and all(
            _is_number(c) for c in item
        ):
            rows.append(tuple(float(c) for c in item))
        else:
            errs.append(f"{path}[{i}]: expected {dim} coordinates, got {item!r}")
    return tuple(rows)


def _check_keys(block, name, required, optional, errs) -> None:
    """Report each key of ``block`` that is neither required nor optional,
    then each required key it lacks (so a caller may read a placeholder
    for it: the violation keeps that from reaching a config)."""
    for key in block:
        if key not in required and key not in optional:
            errs.append(f"{name}.{key}: unknown key")
    for key in required:
        if key not in block:
            errs.append(f"missing required key '{name}.{key}'")


def parse_config(data) -> ProblemConfig:
    """The schema phase, on what orjson reads or else on what ``json.loads``
    reads (see the module docstring) from ``data``, a str or UTF-8 bytes.
    Bytes that are not UTF-8 raise the UnicodeDecodeError of
    ``data.decode("utf-8")``."""
    import orjson  # here, so that importing the CLI does not load it

    try:
        return _schema(orjson.loads(data))
    # RecursionError: orjson reads nesting the stdlib refuses, and the
    # schema phase may then overflow formatting such a value
    except (orjson.JSONDecodeError, SchemaError, RecursionError):
        pass
    # decoded here, not by json.loads, which would also take UTF-16 and a BOM
    text = data if isinstance(data, str) else str(data, "utf-8")
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise SchemaError([f"not valid JSON: {exc}"])
    except RecursionError:
        raise SchemaError(["not valid JSON: nested deeper than the recursion limit"])
    return _schema(raw)


def _schema(raw) -> ProblemConfig:
    if not isinstance(raw, dict):
        raise SchemaError(["top level must be a JSON object"])

    errs = []
    for key in raw:
        if key not in _TOP_KEYS:
            errs.append(f"unknown key {key!r}")

    backend = raw.get("backend")
    if backend not in BACKENDS:
        errs.append(f"backend must be one of {BACKENDS}, got {backend!r}")
        backend = "matrix"

    if "theta" not in raw:
        errs.append("missing required key 'theta'")
    theta = _complex_matrix(raw.get("theta", [[0.0]]), "theta", errs)

    matrix_a = matrix_tau = None
    if backend == "matrix":
        block = raw.get("matrix")
        if not isinstance(block, dict):
            errs.append("backend 'matrix' requires a 'matrix' object with 'a' and 'tau'")
        else:
            _check_keys(block, "matrix", ("a", "tau"), (), errs)
            matrix_a = _complex_matrix(block.get("a", [[1.0]]), "matrix.a", errs)
            matrix_tau = _complex_matrix(block.get("tau", [[1.0]]), "matrix.tau", errs)
    elif "matrix" in raw:
        errs.append(f"'matrix' payload is invalid for backend {backend!r}")

    points = None
    if backend in _DIMS:
        if "points" not in raw:
            errs.append(f"backend {backend!r} requires 'points'")
        else:
            points = _point_rows(raw["points"], _DIMS[backend], "points", errs)
    elif "points" in raw:
        errs.append(f"'points' is invalid for backend {backend!r}")

    symbol_poly = None
    symbol_cos = ()
    symbol_anchor = None
    if backend == "multiplier1d":
        block = raw.get("symbol")
        if not isinstance(block, dict):
            errs.append("backend 'multiplier1d' requires a 'symbol' object")
        else:
            _check_keys(block, "symbol", (), ("poly", "cos", "anchor"), errs)
            poly = block.get("poly")
            if isinstance(poly, list) and poly and all(_is_number(c) for c in poly):
                symbol_poly = tuple(float(c) for c in poly)
            else:
                errs.append("symbol.poly: expected a list of numbers")
            cos = block.get("cos", [])
            if isinstance(cos, list) and all(
                isinstance(t, list) and len(t) == 2 and all(_is_number(c) for c in t)
                for t in cos
            ):
                symbol_cos = tuple((float(k), float(c)) for k, c in cos)
            else:
                errs.append("symbol.cos: expected a list of [frequency, coefficient] pairs")
            if "anchor" not in block:
                errs.append("symbol.anchor: required (the reference point of the anchored difference)")
            else:
                symbol_anchor = _float_entry(block["anchor"], "symbol.anchor", errs)
    elif "symbol" in raw:
        errs.append(f"'symbol' is invalid for backend {backend!r}")

    scan = None
    if "scan" in raw:
        block = raw["scan"]
        if not isinstance(block, dict):
            errs.append("scan: expected an object with 'a', 'b', optional 'grid'")
        else:
            _check_keys(block, "scan", ("a", "b"), ("grid",), errs)
            scan = ScanWindow(
                a=_float_entry(block.get("a", 0.0), "scan.a", errs),
                b=_float_entry(block.get("b", 0.0), "scan.b", errs),
            )
            grid = block.get("grid", 3)  # checked, then dropped
            if not (type(grid) is int and grid >= 3):
                errs.append(f"scan.grid: expected an integer >= 3, got {grid!r}")

    tol_linear, tol_root = ExtensionProblem.tol_linear, ExtensionProblem.tol_root
    if "tolerances" in raw:
        block = raw["tolerances"]
        if not isinstance(block, dict):
            errs.append("tolerances: expected an object")
        else:
            _check_keys(block, "tolerances", (), ("tol_linear", "tol_root"), errs)
            if "tol_linear" in block:
                tol_linear = _float_entry(block["tol_linear"], "tolerances.tol_linear", errs)
            if "tol_root" in block:
                tol_root = _float_entry(block["tol_root"], "tolerances.tol_root", errs)

    z = None
    if "z" in raw:
        z = _complex_entry(raw["z"], "z", errs)

    f = None
    if "f" in raw:
        if isinstance(raw["f"], list) and raw["f"]:
            f = _complex_array([raw["f"]], ["f"], errs)[0]
        else:
            errs.append("f: expected a nonempty list")

    grid1d = None
    if backend == "laplacian1d" and "grid1d" in raw:
        block = raw["grid1d"]
        if not isinstance(block, dict):
            errs.append("grid1d: expected an object with 'lo', 'hi', 'n'")
        else:
            _check_keys(block, "grid1d", ("lo", "hi", "n"), (), errs)
            grid1d = Grid1D(
                lo=_float_entry(block.get("lo", 0.0), "grid1d.lo", errs),
                hi=_float_entry(block.get("hi", 0.0), "grid1d.hi", errs),
                n=_int_entry(block.get("n", 0), "grid1d.n", errs),
            )
    elif "grid1d" in raw:
        errs.append(f"'grid1d' is invalid for backend {backend!r}")

    if errs:
        raise SchemaError(errs)

    return ProblemConfig(
        backend=backend,
        theta=theta,
        matrix_a=matrix_a,
        matrix_tau=matrix_tau,
        points=points,
        symbol_poly=symbol_poly,
        symbol_cos=symbol_cos,
        symbol_anchor=symbol_anchor,
        scan=scan,
        tol_linear=tol_linear,
        tol_root=tol_root,
        z=z,
        f=f,
        grid1d=grid1d,
    )


def build_problem(cfg: ProblemConfig, *, nodes: bool = True) -> ExtensionProblem:
    """Build the problem a config describes: the semantic phase.

    Each object is built once: the ThetaMatrix, the backend object (the
    MatrixModel, or the PointSet with its evaluator; for ``laplacian1d``
    with ``grid1d``, the grid evaluator) and the ExtensionProblem, which
    is returned; the backend object is its ``evaluator``.
    With ``nodes=False`` (a scan, which reads no samples) the ``grid1d``
    nodes are not built: a ``laplacian1d`` config gets the point
    evaluator, after every ``grid1d`` check that needs no nodes.
    Raises one InvariantError listing every constructor's error and every
    failed check of the scan window, ``z`` and ``f``.
    """
    viols = []

    def attempt(make, prefix=""):
        try:
            return make()
        except KreinxError as exc:
            viols.extend(prefix + v for v in getattr(exc, "violations", (str(exc),)))
            return None

    theta = attempt(lambda: ThetaMatrix(cfg.theta))
    ps = evaluator = None
    if cfg.backend == "matrix":
        model = attempt(lambda: MatrixModel(cfg.matrix_a, cfg.matrix_tau))
        if model is not None:
            evaluator = MatrixEvaluator(model)
            if cfg.f is not None and len(cfg.f) != model.n:
                viols.append(
                    f"f has length {len(cfg.f)}, the base matrix is {model.n}x{model.n}"
                )
    else:
        ps = attempt(lambda: PointSet(_DIMS[cfg.backend], cfg.points))
    if cfg.backend == "multiplier1d":
        symbol = attempt(
            lambda: Multiplier1D(poly=cfg.symbol_poly, cos_terms=cfg.symbol_cos)
        )
        if ps is not None and symbol is not None:
            evaluator = attempt(
                lambda: MultiplierAnchoredEvaluator(symbol, ps, cfg.symbol_anchor),
                "symbol.anchor: ",
            )
    elif cfg.backend == "laplacian1d" and cfg.grid1d is not None:
        lo, hi, n = cfg.grid1d.lo, cfg.grid1d.hi, cfg.grid1d.n
        finite = cmath.isfinite(lo) and cmath.isfinite(hi)
        grid_ok = finite and n >= 2 and lo < hi
        if not finite:
            viols.append(f"grid1d ends must be finite, got ({lo}, {hi})")
        elif not grid_ok:
            viols.append("grid1d needs lo < hi and n >= 2")
        # checked before the grid is allocated
        if cfg.f is not None and len(cfg.f) != n:
            viols.append(f"f has length {len(cfg.f)}, grid1d has {n} nodes")
        elif grid_ok and ps is not None:
            try:
                # past numpy's array size limit linspace raises ValueError or
                # IndexError, not MemoryError
                if 8 * n > np.iinfo(np.intp).max:
                    raise MemoryError
                evaluator = (LaplacianGrid1DEvaluator(ps, lo, hi, n) if nodes
                             else LaplacianPointEvaluator(ps))
            except MemoryError:
                viols.append(f"grid1d.n: {n} nodes do not fit in memory")
    elif ps is not None:
        evaluator = LaplacianPointEvaluator(ps)

    if cfg.scan is not None:
        a, b = cfg.scan.a, cfg.scan.b
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            viols.append(f"scan window ends must be finite, got ({a}, {b})")
        elif not a < b:
            viols.append(f"scan window needs a < b, got ({a}, {b})")
        if cfg.backend.startswith("laplacian") and a <= 0.0:
            viols.append(
                "laplacian scan window must satisfy a > 0 "
                "(the interval would touch the essential spectrum (-inf, 0])"
            )

    if cfg.z is not None and not cmath.isfinite(cfg.z):
        viols.append(f"z must be finite, got {cfg.z}")
    if cfg.f is not None and not np.isfinite(cfg.f).all():
        viols.append("f entries must be finite")

    problem = None
    if theta is not None and evaluator is not None:
        problem = attempt(
            lambda: ExtensionProblem(evaluator, theta, cfg.tol_linear, cfg.tol_root)
        )
    if viols:
        raise InvariantError(viols)
    return problem
