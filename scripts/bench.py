"""Cold-CLI and layer benchmark; writes BENCH_<label>.json at the repo root.

    python scripts/bench.py LABEL

Cold CLI: each request runs in a fresh ``python -m kreinx`` interpreter
(so every run pays the imports, as a one-shot user does) on committed
inputs, with one BLAS thread and the output sent to the null device.
The cases run round-robin, RUNS times each, and the JSON records every
wall time, the median and the exit code.  ``import`` times a bare
``import kreinx.cli``.

Warm CLI: the same requests but ``import``, plus ``verify --seed 42
--models 6`` (the size of one benchmark ``verify_suite`` request), each
as one in-process ``kreinx.cli.main`` call with the CSV sent to the null
device and stderr suppressed; one warm-up call, then the median of RUNS
calls.  This is the per-request cost once the imports are paid.

Layer, in-process, one warm-up call and then the median of RUNS calls:
``LaplacianGrid1DEvaluator.r_apply`` (the 1-d grid convolution) at
n = 1e3, 1e4 and 1e5 nodes; and the perturbed resolvent of the matrix
backend at n = 12 and 400 (N = 2) on k = 1 and 10 vectors at one z,
once as k ``krein_apply`` calls and once as one ``krein_resolvent``
applied k times; and at n = 12 (N = 4) on one vector at each of k = 10
points, once as one ``krein_resolvent`` per point and once as one
stacked ``krein_resolvent`` over all 10 points applied to a (10, 12)
block; and ``spectral._interior_values`` (one pencil evaluation inside a
scan window, as the scan runs it on an exactly hermitian pencil: the
trace matrix, the coupling and the eigenvalues, with no hermiticity
check) on the Laplacian backends in dims 1, 2 and 3 with N = 1, 8 and 16
points, real coupling, at one real lambda, timed per call over
BRANCH_REPS calls; and the kernel quadratures, each at one real and one
complex point: ``multiplier_gz_1d`` of the symbol -xi^2 at x = 0 and
x = 0.8, ``anchored_gamma_1d`` of -xi^2 - 0.1 xi^4 at N = 2 (points 1.0
apart, anchor 1.5), and ``gbreve_g_quadrature_1d`` and
``gbreve_g_radial_3d`` on the two points ``verify`` uses, with w = 4;
and ``parse_config`` on a generated 400 x 400 matrix config and a
3000-node ``grid1d`` config (the sizes of the ``resolvent`` benchmark
requests), given as UTF-8 bytes as the CLI reads them, once by the
orjson route and once by the stdlib route (orjson refusing the text),
the two interleaved in one process so that each pair of timings sees
the same machine, and then ``build_problem`` on each parsed config (the
matrix model with its ``eigh``, or the grid evaluator with its nodes);
and ``csvio.render_csv`` on the two table shapes the
CLI writes most: a 3000 x 5 table of float64 array columns (a
3000-node ``resolvent`` on the 1-d grid) and the 8 x 37 table of a
16-charge ``spectrum`` with eight roots (lists of roots and float64
array columns of charges, as the CLI passes them), timed per call over
CSV_REPS calls.

The package is taken from ``src/`` next to this script, so a copy of
this file in another checkout measures that checkout.
"""

import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
RUNS = 7
LAYER_SIZES = (1_000, 10_000, 100_000)
KREIN_SIZES = (12, 400)
KREIN_VECTORS = (1, 10)
STACK_POINTS = 10
BRANCH_SIZES = (1, 8, 16)
BRANCH_LAMBDA = 0.7
BRANCH_REPS = 200
# (real, complex) points of the quadrature layer
QUAD_POINTS = (2.0, 2.0 + 1.0j)
CONFIG_MATRIX_N = 400
CONFIG_GRID_N = 3000
CSV_GRID_ROWS = 3000
CSV_SPECTRUM = (8, 16)  # roots, charges: 5 + 2 x 16 = 37 columns
CSV_REPS = 200

COLD_CASES = {
    "import": ["-c", "import kreinx.cli"],
    "resolvent_matrix6": ["-m", "kreinx", "resolvent",
                          "--config", str(SCRIPTS / "resolvent_matrix6.json")],
    "resolvent_grid200": ["-m", "kreinx", "resolvent",
                          "--config", str(SCRIPTS / "resolvent_grid200.json")],
    "spectrum_matrix5": ["-m", "kreinx", "spectrum",
                         "--config", str(SCRIPTS / "spectrum_matrix5.json")],
    "oracle_seed7": ["-m", "kreinx", "oracle", "--seed", "7"],
    "green_dim3": ["-m", "kreinx", "green", "--dim", "3", "--z", "1"],
    "verify_seed42": ["-m", "kreinx", "verify", "--seed", "42", "--models", "20"],
}
WARM_CASES = {
    **{name: args[2:] for name, args in COLD_CASES.items() if args[0] == "-m"},
    "verify_seed42_models6": ["verify", "--seed", "42", "--models", "6"],
}


def cold_cli() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    walls = {name: [] for name in COLD_CASES}
    codes = {name: set() for name in COLD_CASES}
    for _ in range(RUNS):
        for name, args in COLD_CASES.items():
            out = ["-o", os.devnull] if args[0] == "-m" else []
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, *args, *out], env=env, cwd=ROOT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            walls[name].append(time.perf_counter() - t0)
            codes[name].add(proc.returncode)
    return {
        name: {"median_s": statistics.median(w), "runs_s": w, "exit_codes": sorted(codes[name])}
        for name, w in walls.items()
    }


def warm_cli() -> dict:
    from kreinx.cli import main as cli_main

    out = {}
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        for name, args in WARM_CASES.items():
            argv = [*args, "-o", os.devnull]
            codes = {cli_main(argv)}
            times = []
            for _ in range(RUNS):
                t0 = time.perf_counter()
                codes.add(cli_main(argv))
                times.append(time.perf_counter() - t0)
            out[name] = {"median_s": statistics.median(times), "runs_s": times,
                         "exit_codes": sorted(codes)}
    return out


def _timed(fn, reps: int = 1) -> dict:
    """One warm-up call of ``fn``, then the median of RUNS timings, each
    the mean over ``reps`` calls."""
    fn()
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return {"median_s": statistics.median(times), "runs_s": times}


def r_apply_layer() -> dict:
    import numpy as np

    from kreinx import LaplacianGrid1DEvaluator, PointSet

    ps = PointSet(1, [[-0.8], [0.6]])
    out = {}
    for n in LAYER_SIZES:
        ev = LaplacianGrid1DEvaluator(ps, -8.0, 8.0, n)
        f = np.exp(-ev.xs**2) * (1.0 + 0.5j)
        out[f"n={n}"] = _timed(lambda: ev.r_apply(1.0 + 0.5j, f))
    return out


def krein_apply_layer() -> dict:
    import numpy as np

    from kreinx import ExtensionProblem, MatrixEvaluator, krein_apply, krein_resolvent
    from kreinx.matrixmodel import random_model, random_theta

    z = 0.3 + 0.8j
    out = {}
    for n in KREIN_SIZES:
        rng = np.random.default_rng(n)
        problem = ExtensionProblem(
            MatrixEvaluator(random_model(rng, n, 2)), random_theta(rng, 2)
        )
        for k in KREIN_VECTORS:
            fs = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))

            def per_vector():
                for f in fs:
                    krein_apply(problem, z, f)

            def per_z():
                apply = krein_resolvent(problem, z)
                for f in fs:
                    apply(f)

            out[f"n={n},k={k},krein_apply"] = _timed(per_vector)
            out[f"n={n},k={k},krein_resolvent"] = _timed(per_z)

    rng = np.random.default_rng(STACK_POINTS)
    n = 12
    problem = ExtensionProblem(MatrixEvaluator(random_model(rng, n, 4)), random_theta(rng, 4))
    zs = rng.uniform(-10.0, 10.0, STACK_POINTS) + 1j * rng.uniform(0.1, 5.0, STACK_POINTS)
    fs = rng.standard_normal((STACK_POINTS, n)) + 1j * rng.standard_normal((STACK_POINTS, n))

    def per_point():
        for z, f in zip(zs, fs):
            krein_resolvent(problem, complex(z))(f)

    def stacked():
        krein_resolvent(problem, zs)(fs)

    out[f"n={n},N=4,points={STACK_POINTS},per_point"] = _timed(per_point)
    out[f"n={n},N=4,points={STACK_POINTS},stacked"] = _timed(stacked)
    return out


def interior_values_layer() -> dict:
    import numpy as np

    from kreinx import ExtensionProblem, LaplacianPointEvaluator, PointSet, ThetaMatrix
    from kreinx.spectral import _interior_values

    out = {}
    for dim in (1, 2, 3):
        for n in BRANCH_SIZES:
            rng = np.random.default_rng([dim, n])
            ps = PointSet(dim, rng.uniform(0.0, 4.0, size=(n, dim)))
            problem = ExtensionProblem(LaplacianPointEvaluator(ps), ThetaMatrix(-0.3 * np.eye(n)))
            out[f"dim={dim},N={n}"] = _timed(
                lambda: _interior_values(problem, BRANCH_LAMBDA, True), BRANCH_REPS
            )
    return out


def quadrature_layer() -> dict:
    from kreinx import Multiplier1D, PointSet, anchored_gamma_1d, multiplier_gz_1d
    from kreinx.greens import gbreve_g_quadrature_1d, gbreve_g_radial_3d

    laplacian = Multiplier1D(poly=(0.0, 0.0, -1.0))
    quartic = Multiplier1D(poly=(0.0, 0.0, -1.0, 0.0, -0.1))
    pair = PointSet(1, [0.0, 1.0])
    line, space = PointSet(1, [-0.4, 0.7]), PointSet(3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    out = {}
    for kind, z in zip(("real", "complex"), QUAD_POINTS):
        for x in (0.0, 0.8):
            out[f"multiplier_gz_1d,x={x},{kind}"] = _timed(
                lambda: multiplier_gz_1d(laplacian, z, x))
        out[f"anchored_gamma_1d,N=2,{kind}"] = _timed(
            lambda: anchored_gamma_1d(quartic, pair, z, 1.5))
        out[f"gbreve_g_quadrature_1d,{kind}"] = _timed(lambda: gbreve_g_quadrature_1d(line, 4.0, z))
        out[f"gbreve_g_radial_3d,{kind}"] = _timed(lambda: gbreve_g_radial_3d(space, 4.0, z))
    return out


def _layer_configs() -> dict:
    import numpy as np

    rng = np.random.default_rng(CONFIG_MATRIX_N)
    n = CONFIG_MATRIX_N
    a = rng.standard_normal((n, n))
    xs = np.linspace(-14.0, 14.0, CONFIG_GRID_N)
    return {
        f"matrix,n={n}": {
            "backend": "matrix",
            "matrix": {"a": ((a + a.T) / 2.0).tolist(), "tau": rng.standard_normal((2, n)).tolist()},
            "theta": [[0.5, 0.1], [0.1, -0.5]],
            "z": [0.5, 1.0],
            "f": rng.standard_normal(n).tolist(),
        },
        f"grid1d,n={CONFIG_GRID_N}": {
            "backend": "laplacian1d",
            "points": [-0.8, 0.6],
            "theta": [[0.4, 0.1], [0.1, -0.3]],
            "z": [1.0, 0.5],
            "f": np.exp(-xs**2).tolist(),
            "grid1d": {"lo": -14.0, "hi": 14.0, "n": CONFIG_GRID_N},
        },
    }


def config_layer() -> dict:
    """One warm-up parse, then RUNS rounds of one parse per route, the
    route that goes first alternating; the median of each route.  Then
    ``build_problem`` on the parsed config, timed as ``_timed`` does."""
    import orjson

    from kreinx.config import build_problem, parse_config

    def refuse(text):
        raise orjson.JSONDecodeError("refused", "", 0)

    loads = orjson.loads
    routes = ("orjson", "json")
    out = {}
    try:
        for name, cfg in _layer_configs().items():
            text = json.dumps(cfg).encode("utf-8")
            parse_config(text)
            times = {route: [] for route in routes}
            for r in range(RUNS):
                for route in routes if r % 2 == 0 else routes[::-1]:
                    orjson.loads = loads if route == "orjson" else refuse
                    t0 = time.perf_counter()
                    parse_config(text)
                    times[route].append(time.perf_counter() - t0)
            for route, runs in times.items():
                out[f"{name},{route}"] = {"median_s": statistics.median(runs), "runs_s": runs,
                                          "text_bytes": len(text)}
            orjson.loads = loads
            parsed = parse_config(text)
            out[f"{name},build_problem"] = _timed(lambda: build_problem(parsed))
    finally:
        orjson.loads = loads
    return out


def csv_layer() -> dict:
    import numpy as np

    from kreinx.csvio import render_csv

    rng = np.random.default_rng(CSV_GRID_ROWS)
    grid = [np.linspace(-8.0, 8.0, CSV_GRID_ROWS), *rng.standard_normal((4, CSV_GRID_ROWS))]
    grid_schema = ["x", "f_re", "f_im", "rf_re", "rf_im"]
    roots, n = CSV_SPECTRUM
    z0 = np.sort(rng.uniform(0.1, 2.0, roots)).tolist()
    charges = rng.standard_normal((roots, n)) + 1j * rng.standard_normal((roots, n))
    spectrum = [range(roots), z0, [-z for z in z0], [1] * roots,
                [1e-14 * (i + 1) for i in range(roots)], *charges.real.T, *charges.imag.T]
    spectrum_schema = (["root_index", "z0", "energy", "multiplicity", "residual"]
                       + [f"Q_re_{j + 1}" for j in range(n)] + [f"Q_im_{j + 1}" for j in range(n)])
    return {
        f"grid,{CSV_GRID_ROWS}x{len(grid)}": _timed(lambda: render_csv(grid, grid_schema)),
        f"spectrum,{roots}x{len(spectrum)}": _timed(
            lambda: render_csv(spectrum, spectrum_schema), CSV_REPS
        ),
    }


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python scripts/bench.py LABEL", file=sys.stderr)
        return 2
    label = argv[0]
    # before numpy loads here or in a child process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    result = {
        "label": label,
        "machine": {
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "scipy": version("scipy"),
            "orjson": version("orjson"),
        },
        "runs": RUNS,
        "cold_cli": cold_cli(),
        "warm_cli": warm_cli(),
        "layer": {
            "greens.r_apply": r_apply_layer(),
            "krein.krein_apply": krein_apply_layer(),
            "spectral._interior_values": interior_values_layer(),
            "quadrature": quadrature_layer(),
            "config.parse_config": config_layer(),
            "csvio.render_csv": csv_layer(),
        },
    }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for name, row in result["cold_cli"].items():
        print(f"{name:20s} {row['median_s']:.3f} s  exit {row['exit_codes']}")
    for name, row in result["warm_cli"].items():
        print(f"warm {name:15s} {row['median_s'] * 1e3:.2f} ms  exit {row['exit_codes']}")
    for name, row in result["layer"]["greens.r_apply"].items():
        print(f"r_apply {name:12s} {row['median_s'] * 1e3:.2f} ms")
    for name, row in result["layer"]["krein.krein_apply"].items():
        print(f"{name:32s} {row['median_s'] * 1e3:.3f} ms")
    for name, row in result["layer"]["spectral._interior_values"].items():
        print(f"_interior_values {name:12s} {row['median_s'] * 1e6:.1f} us")
    for name, row in result["layer"]["quadrature"].items():
        print(f"{name:36s} {row['median_s'] * 1e3:.3f} ms")
    for name, row in result["layer"]["config.parse_config"].items():
        print(f"parse_config {name:24s} {row['median_s'] * 1e3:.2f} ms")
    for name, row in result["layer"]["csvio.render_csv"].items():
        print(f"render_csv {name:26s} {row['median_s'] * 1e3:.3f} ms")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
