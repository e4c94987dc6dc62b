"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Tolerances are fixed here and nowhere else.
"""

import json
import time

import numpy as np
from scipy.linalg import eigh_tridiagonal

import kreinx as kx
from kreinx.cli import main
from kreinx.greens import gbreve_g_quadrature_1d, gbreve_g_radial_3d
from kreinx.matrixmodel import base_resolvent, g_maps, gamma, random_problem_suite
from kreinx.verify import rel_residual

SEED = 20260810


def report(name, ok, detail=""):
    line = f"ACCEPT {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_1_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    count = 0
    for model, theta, zs in random_problem_suite(SEED, 100):
        problem = kx.ExtensionProblem(kx.MatrixEvaluator(model), theta)
        rng = np.random.default_rng((SEED, count))
        try:
            b = kx.woodbury_extension(model, theta)
        except kx.OracleDegenerate:
            continue
        eye = np.eye(model.n)
        for z in zs:
            f = rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n)
            via_pencil = kx.krein_apply(problem, z, f)
            via_oracle = np.linalg.solve(z * eye - b, f)
            worst = max(
                worst,
                float(np.linalg.norm(via_pencil - via_oracle) / np.linalg.norm(via_oracle)),
            )
        count += 1
    elapsed = time.time() - t0
    report(
        "1 oracle equivalence",
        worst <= 1e-9 and elapsed < 10.0 and count >= 95,
        f"max rel diff {worst:.2e} over {count} models, 20 z each, {elapsed:.1f}s",
    )


def test_2_identity_suite():
    worst_matrix = 0.0
    for model, _theta, zs in random_problem_suite(SEED + 1, 20):
        z_list = [complex(z) for z in zs[:5]]
        maps = {z: g_maps(model, z) for z in z_list}
        res = {z: base_resolvent(model, z) for z in z_list}
        gam = {z: gamma(model, z) for z in z_list}
        for z in z_list:
            worst_matrix = max(
                worst_matrix,
                rel_residual(-model.a @ maps[z].k, z * maps[z].g),
                rel_residual(gamma(model, np.conj(z)), gam[z].conj().T),
            )
            for w in z_list:
                if w == z:
                    continue
                worst_matrix = max(
                    worst_matrix,
                    rel_residual((z - w) * res[w] @ maps[z].g, maps[w].g - maps[z].g),
                    rel_residual(maps[w].k - maps[z].k, maps[z].g - maps[w].g),
                    rel_residual(
                        gam[z] - gam[w],
                        (z - w) * (model.tau @ res[w]) @ maps[z].g,
                    ),
                )

    z, w = 1.0, 4.0
    ps1 = kx.PointSet(1, [-0.4, 0.7])
    diff1 = kx.gamma_matrix(ps1, z) - kx.gamma_matrix(ps1, w)
    quad1 = rel_residual(diff1, (z - w) * gbreve_g_quadrature_1d(ps1, w, z))
    ps3 = kx.PointSet(3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    diff3 = kx.gamma_matrix(ps3, z) - kx.gamma_matrix(ps3, w)
    quad3 = rel_residual(diff3, (z - w) * gbreve_g_radial_3d(ps3, w, z))
    zc = 2.0 + 1.0j
    conj1 = rel_residual(
        kx.gamma_matrix(ps1, np.conj(zc)), kx.gamma_matrix(ps1, zc).conj().T
    )
    conj3 = rel_residual(
        kx.gamma_matrix(ps3, np.conj(zc)), kx.gamma_matrix(ps3, zc).conj().T
    )
    worst_quad = max(quad1, quad3, conj1, conj3)
    report(
        "2 identity suite",
        worst_matrix <= 1e-11 and worst_quad <= 1e-6,
        f"matrix {worst_matrix:.2e} (tol 1e-11), kernels {worst_quad:.2e} (tol 1e-6)",
    )


def test_3_worked_two_level_example():
    model = kx.MatrixModel(np.diag([1.0, -1.0]), [[1.0, 1.0]])
    theta = kx.ThetaMatrix([[1.0]])
    b = kx.woodbury_extension(model, theta)
    matrix_ok = np.allclose(b, [[2.0, 1.0], [1.0, 0.0]], rtol=0, atol=1e-14)

    problem = kx.ExtensionProblem(kx.MatrixEvaluator(model), theta)
    upper = kx.scan_spectrum(problem, (1.5, 4.0)).positions()
    lower = kx.scan_spectrum(problem, (-0.9, 0.9)).positions()
    roots_ok = (
        len(upper) == 1
        and len(lower) == 1
        and abs(upper[0] - (1.0 + np.sqrt(2.0))) <= 1e-10
        and abs(lower[0] - (1.0 - np.sqrt(2.0))) <= 1e-10
    )
    report(
        "3 worked 2x2 example",
        matrix_ok and roots_ok,
        f"roots {lower[0]:.12f}, {upper[0]:.12f}",
    )


def test_4_3d_point_interaction():
    worst = 0.0
    for alpha in (-0.05, -0.1, -0.5):
        ps = kx.PointSet(3, [[0.0, 0.0, 0.0]])
        problem = kx.ExtensionProblem(
            kx.LaplacianPointEvaluator(ps), kx.ThetaMatrix([[alpha]])
        )
        z0 = 16.0 * np.pi**2 * alpha**2
        rep = kx.scan_spectrum(problem, (0.5 * z0, 2.0 * z0))
        assert len(rep.roots) == 1
        worst = max(worst, abs(rep.roots[0].z0 - z0) / z0)
    report("4 3d point interaction", worst <= 1e-8, f"max rel err {worst:.2e}")


def _fd_delta_well_ground_energy(c, length=20.0, h=1e-3):
    # Dirichlet finite differences for the second-derivative operator with
    # an on-site -c/h at the origin node
    n = int(round(2.0 * length / h)) + 1
    xs = -length + h * np.arange(n)
    diag = np.full(n - 2, 2.0 / h**2)
    origin = int(np.argmin(np.abs(xs[1:-1])))
    assert abs(xs[1:-1][origin]) < 1e-9
    diag[origin] -= c / h
    off = np.full(n - 3, -1.0 / h**2)
    w = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0), eigvals_only=True)
    return float(w[0])


def test_5_1d_finite_difference_crosscheck():
    worst_solver = 0.0
    worst_fd = 0.0
    for alpha in (0.5, 1.0):
        ps = kx.PointSet(1, [0.0])
        problem = kx.ExtensionProblem(
            kx.LaplacianPointEvaluator(ps), kx.ThetaMatrix([[alpha]])
        )
        z0_pred = 1.0 / (4.0 * alpha**2)
        rep = kx.scan_spectrum(problem, (0.5 * z0_pred, 2.0 * z0_pred))
        worst_solver = max(worst_solver, abs(rep.roots[0].z0 - z0_pred) / z0_pred)
        # coupling map: scalar coupling alpha <-> delta strength c = 1/alpha
        energy_fd = _fd_delta_well_ground_energy(1.0 / alpha)
        worst_fd = max(worst_fd, abs(energy_fd - (-z0_pred)) / z0_pred)
    report(
        "5 1d finite-difference crosscheck",
        worst_solver <= 1e-8 and worst_fd <= 5e-3,
        f"solver rel {worst_solver:.2e}, fd rel {worst_fd:.2e} (tol 0.5%)",
    )


def test_6_2d_renormalization_and_k0():
    renorm_err = abs(kx.renormalized_diagonal(2, 4.0) - np.euler_gamma / (2.0 * np.pi))
    # frozen 40-digit series oracle values
    k0_err = max(
        abs(kx.k0_bessel(1.0) - 0.4210244382407083333),
        abs(kx.k0_bessel(2.0) - 0.1138938727495334357),
    )
    report(
        "6 2d renormalization",
        renorm_err <= 1e-9 and k0_err <= 1e-10,
        f"renorm err {renorm_err:.2e} (tol 1e-9), K0 err {k0_err:.2e} (tol 1e-10)",
    )


def test_7_generic_symbol_consistency():
    sym = kx.Multiplier1D(poly=(0.0, 0.0, -1.0))
    worst = 0.0
    for z in (0.5, 1.0, 2.0, 4.0, 8.0):
        for x in (0.0, 0.3, 1.0, 2.0, 3.5):
            got = kx.multiplier_gz_1d(sym, z, x)
            ref = kx.gz(1, abs(x), z)
            worst = max(worst, abs(got - ref) / abs(ref))
    anchored = kx.anchored_gamma_1d(sym, kx.PointSet(1, [0.0]), 4.0, 1.0)
    anchored_err = abs(anchored[0, 0] - 0.25)
    report(
        "7 generic symbol consistency",
        worst <= 1e-8 and anchored_err <= 1e-8,
        f"kernel grid rel {worst:.2e}, anchored diag err {anchored_err:.2e}",
    )


def test_8_determinism(tmp_path):
    v1, v2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    code1 = main(["verify", "--seed", "42", "--models", "10", "-o", str(v1)])
    code2 = main(["verify", "--seed", "42", "--models", "10", "-o", str(v2)])
    verify_ok = code1 == code2 == 0 and v1.read_bytes() == v2.read_bytes()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "backend": "laplacian3d",
        "points": [[0.0, 0.0, 0.0]],
        "theta": [[-0.0795774715]],
        "scan": {"a": 0.5, "b": 2.0, "grid": 64},
    }))
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    main(["spectrum", "--config", str(cfg), "-o", str(s1)])
    main(["spectrum", "--config", str(cfg), "-o", str(s2)])
    spectrum_ok = s1.read_bytes() == s2.read_bytes()
    report(
        "8 determinism",
        verify_ok and spectrum_ok,
        "verify and spectrum outputs byte-identical across reruns",
    )
