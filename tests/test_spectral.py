import ast
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from kreinx import (
    EvaluationAtSingularity,
    EvaluationPoint,
    ExtensionProblem,
    InertiaMismatch,
    IntervalOutsideResolventSet,
    InvariantError,
    KreinxError,
    LaplacianPointEvaluator,
    MatrixEvaluator,
    MatrixModel,
    NotHermitian,
    OracleDegenerate,
    PencilNotMonotone,
    PointSet,
    ThetaMatrix,
    direct_eigs,
    eigenfunction_eval,
    eigenfunction_l2_norm,
    scan_spectrum,
    verify_eigenpair,
)
from kreinx.krein import GammaEvaluator
from kreinx.matrixmodel import random_model, random_theta

from conftest import complex_gamma_matrix

SQRT2 = np.sqrt(2.0)


def laplacian_problem(dim, points, alpha):
    ps = PointSet(dim, points)
    theta = ThetaMatrix(alpha * np.eye(ps.n_points))
    return ps, ExtensionProblem(LaplacianPointEvaluator(ps), theta)


class TestScanSpectrum:
    def test_worked_example_upper_root(self, two_level_problem):
        rep = scan_spectrum(two_level_problem, (1.5, 4.0))
        assert len(rep.roots) == 1
        assert abs(rep.roots[0].z0 - (1.0 + SQRT2)) <= 1e-10
        assert rep.roots[0].multiplicity == 1
        assert np.allclose(rep.roots[0].charge, [1.0])

    def test_worked_example_lower_root(self, two_level_problem):
        rep = scan_spectrum(two_level_problem, (-0.9, 0.9))
        assert abs(rep.roots[0].z0 - (1.0 - SQRT2)) <= 1e-10

    def test_3d_single_point_bound_state(self):
        _, problem = laplacian_problem(3, [[0.0, 0.0, 0.0]], -1.0 / (4.0 * np.pi))
        rep = scan_spectrum(problem, (0.5, 2.0))
        assert len(rep.roots) == 1
        assert abs(rep.roots[0].z0 - 1.0) <= 1e-10
        assert rep.roots[0].energy == pytest.approx(-1.0)

    def test_3d_positive_coupling_has_no_roots(self):
        _, problem = laplacian_problem(3, [[0.0, 0.0, 0.0]], 1.0)
        rep = scan_spectrum(problem, (0.01, 50.0))
        assert rep.roots == ()

    def test_2d_single_point_closed_form(self):
        # alpha + (log(sqrt(z)/2) + gamma_E)/(2 pi) = 0 solves to
        # z0 = 4 exp(-4 pi alpha - 2 gamma_E); a bound state for every alpha
        for alpha in (-0.05, 0.0, 0.1):
            _, problem = laplacian_problem(2, [[0.0, 0.0]], alpha)
            z0 = 4.0 * np.exp(-4.0 * np.pi * alpha - 2.0 * np.euler_gamma)
            rep = scan_spectrum(problem, (0.5 * z0, 2.0 * z0))
            assert len(rep.roots) == 1
            assert abs(rep.roots[0].z0 - z0) <= 1e-10 * z0

    def test_multiplier_backend_scan_with_anchor_reparametrization(self):
        # anchored coupling theta' = theta_abs + gamma(w0): for the pure
        # second-order symbol, theta' = 0 at anchor w0 = 1 corresponds to the
        # absolute coupling 1/2, whose pole sits at z0 = 1
        from kreinx import ExtensionProblem, Multiplier1D, MultiplierAnchoredEvaluator

        sym = Multiplier1D(poly=(0.0, 0.0, -1.0))
        ev = MultiplierAnchoredEvaluator(sym, PointSet(1, [0.0]), 1.0)
        problem = ExtensionProblem(ev, ThetaMatrix([[0.0]]))
        rep = scan_spectrum(problem, (0.5, 2.0))
        assert len(rep.roots) == 1
        assert abs(rep.roots[0].z0 - 1.0) <= 1e-7

    def test_3d_monotone_in_coupling(self):
        # z0(alpha) = 16 pi^2 alpha^2, increasing in |alpha|
        roots = []
        for alpha in (-0.05, -0.1, -0.5):
            _, problem = laplacian_problem(3, [[0.0, 0.0, 0.0]], alpha)
            z0 = 16.0 * np.pi**2 * alpha**2
            rep = scan_spectrum(problem, (0.5 * z0, 2.0 * z0))
            assert abs(rep.roots[0].z0 - z0) <= 1e-8 * z0
            roots.append(rep.roots[0].z0)
        assert roots == sorted(roots)

    def test_root_on_window_end(self):
        # the tuned coupling makes the branch exactly zero at z = 1; a
        # window ending there reports the root at that end, exactly
        ps = PointSet(3, [[0.0, 0.0, 0.0]])
        problem = ExtensionProblem(
            LaplacianPointEvaluator(ps), ThetaMatrix([[-1.0 / (4.0 * np.pi)]])
        )
        for window in ((0.5, 1.0), (1.0, 1.5)):
            rep = scan_spectrum(problem, window)
            assert len(rep.roots) == 1
            assert rep.roots[0].z0 == 1.0

    def test_complex_coupling_roots_match_oracle(self):
        # hermitian coupling with a complex off-diagonal entry: every oracle
        # eigenvalue inside the base resolvent set is a pencil root with a
        # phase-fixed kernel vector
        from kreinx import direct_eigs
        from kreinx.matrixmodel import random_model

        model = random_model(np.random.default_rng(0), 6, 2)
        theta = ThetaMatrix([[0.3, 0.2 + 0.4j], [0.2 - 0.4j, -0.1]])
        problem = ExtensionProblem(MatrixEvaluator(model), theta)
        checked = 0
        for lam in direct_eigs(model, theta):
            if model.spectrum_distance(lam) < 0.05:
                continue
            rep = scan_spectrum(problem, (lam - 0.03, lam + 0.03))
            assert len(rep.roots) == 1
            q = rep.roots[0].charge
            assert q[0].real > 0 and abs(q[0].imag) < 1e-13
            pencil = problem.theta.entries + problem.evaluator.at(rep.roots[0].z0).gamma
            assert np.linalg.norm(pencil @ q) <= 1e-12
            checked += 1
        assert checked >= 4

    def test_interval_validation(self, two_level_problem):
        with pytest.raises(IntervalOutsideResolventSet):
            scan_spectrum(two_level_problem, (0.5, 1.5))  # contains eig 1
        _, problem = laplacian_problem(3, [[0.0, 0.0, 0.0]], -0.1)
        with pytest.raises(IntervalOutsideResolventSet):
            scan_spectrum(problem, (-1.0, 2.0))

    @pytest.mark.parametrize("window", [(2.0, 2.0), (3.0, 2.0)])
    def test_window_needs_a_below_b(self, two_level_problem, window):
        with pytest.raises(InvariantError) as err:
            scan_spectrum(two_level_problem, window)
        assert err.value.violations == (f"need a < b, got {window}",)

    def test_close_roots_on_two_branches(self):
        # two decoupled scalar pencils with roots lambda_i = a_i + 1/(theta_i
        # - 1/a_i) about 7e-4 apart: each branch holds one of them
        model = MatrixModel(np.diag([1.0, 1.0 + 1e-4]), np.eye(2))
        theta = ThetaMatrix(np.diag([1.35, 1.35]))
        problem = ExtensionProblem(MatrixEvaluator(model), theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = scan_spectrum(problem, (1.5, 8.0))
        assert rep.warnings == ()
        assert len(rep.roots) == 2
        assert [r.multiplicity for r in rep.roots] == [1, 1]
        want = [ai + 1.0 / (1.35 - 1.0 / ai) for ai in (1.0, 1.0 + 1e-4)]
        assert np.allclose(sorted(rep.positions()), sorted(want), rtol=1e-12, atol=0.0)

    def test_degenerate_root_reported_once(self):
        # tau reaches only the eigenvalue-1 block of a, so the pencil is
        # (0.35 - 1/(z - 1)) I_2: one root of multiplicity 2 at z = 1 + 1/0.35,
        # found on each of the two bracketed branches
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        a = (u * np.array([1.0, 1.0, -2.0])) @ u.conj().T
        model = MatrixModel((a + a.conj().T) / 2.0, u[:, :2].conj().T)
        theta = ThetaMatrix(1.35 * np.eye(2))
        rep = scan_spectrum(ExtensionProblem(MatrixEvaluator(model), theta), (1.5, 8.0))
        assert len(rep.roots) == 1
        assert rep.roots[0].multiplicity == 2
        want = [lam for lam in direct_eigs(model, theta) if 1.5 <= lam <= 8.0]
        assert len(want) == 2
        for lam in want:
            assert abs(rep.roots[0].z0 - lam) <= 1e-9 * (1.0 + abs(lam))

    def test_steep_root_refined_to_the_best_double(self):
        # the pencil changes by about 1e-10 per double here, so only the
        # double next to the sign change is within tol_root
        model = random_model(191, 6, 1)
        problem = ExtensionProblem(MatrixEvaluator(model), random_theta(192, 1))
        rep = scan_spectrum(problem, (-5.520755366617583, -5.507005856364466))
        assert rep.warnings == ()
        assert len(rep.roots) == 1
        assert rep.roots[0].residual <= problem.tol_root
        want = [lam for lam in direct_eigs(model, problem.theta) if -5.53 < lam < -5.50]
        assert len(want) == 1
        assert abs(rep.roots[0].z0 - want[0]) <= 1e-9 * (1.0 + abs(want[0]))

    def test_unrefined_root_reported_with_note(self):
        class JumpEvaluator(GammaEvaluator):
            # increasing, but it jumps over zero at z = 2
            n_charges = 1

            def interval_in_resolvent_set(self, a, b):
                return a <= b

            def at(self, z):
                x = np.real(z) - 2.0
                return EvaluationPoint(np.array([[x + (1e-3 if x >= 0.0 else -1e-3)]]))

        problem = ExtensionProblem(JumpEvaluator(), ThetaMatrix([[0.0]]))
        rep = scan_spectrum(problem, (1.0, 3.0))
        assert [(r.z0, r.residual, r.multiplicity) for r in rep.roots] == [(2.0, 1e-3, 1)]
        assert np.array_equal(rep.roots[0].charge, [1.0])
        assert rep.warnings == (
            "root lambda=2 did not refine below tol_root (pencil eigenvalue 1.000e-03)",
        )

    def test_steep_root_above_tol_root_reported(self):
        # the best double leaves 1.507e-10 > tol_root: the sign change
        # encloses the root, so it is reported with one note
        model = random_model(13, 6, 1)
        problem = ExtensionProblem(MatrixEvaluator(model), random_theta(14, 1))
        rep = scan_spectrum(problem, (5.119143372626481, 5.124013191433564))
        assert len(rep.roots) == 1
        root = rep.roots[0]
        assert root.multiplicity == 1
        assert root.residual == pytest.approx(1.507e-10, rel=1e-3)
        want = [lam for lam in direct_eigs(model, problem.theta) if 5.11 < lam < 5.13]
        assert len(want) == 1 and abs(root.z0 - want[0]) <= 1e-9
        assert len(rep.warnings) == 1
        assert "1.507e-10" in rep.warnings[0]

    def test_eigvalsh_and_eigh_disagreeing_at_tol_root(self):
        # at the root eigvalsh gives 2.9e-15 and eigh 1.057e-13, on either
        # side of tol_root: the scan reads eigvalsh alone and reports it
        model = random_model(159, 9, 4)
        problem = ExtensionProblem(MatrixEvaluator(model), random_theta(1159, 4), tol_root=1e-13)
        rep = scan_spectrum(problem, (-1.8039526237154562, -1.8037526237154562))
        assert len(rep.roots) == 1 and rep.warnings == ()
        assert rep.roots[0].residual <= problem.tol_root
        want = [lam for lam in direct_eigs(model, problem.theta) if -1.81 < lam < -1.80]
        assert len(want) == 1 and abs(rep.roots[0].z0 - want[0]) <= 1e-9

    def test_unresolved_window_end_raises(self):
        # two decoupled scalar pencils with roots 7e-11 apart, closer than
        # tol_root resolves: a window ending between them holds one root by
        # inertia, but the root found there covers both branches
        model = MatrixModel(np.diag([1.0, 1.0 + 1e-11]), np.eye(2))
        problem = ExtensionProblem(MatrixEvaluator(model), ThetaMatrix(1.35 * np.eye(2)))
        r1, r2 = (ai + 1.0 / (1.35 - 1.0 / ai) for ai in (1.0, 1.0 + 1e-11))
        with pytest.raises(InertiaMismatch):
            scan_spectrum(problem, (1.5, 0.5 * (r1 + r2)))
        rep = scan_spectrum(problem, (1.5, 8.0))
        assert [r.multiplicity for r in rep.roots] == [2]

    def test_tangency_raises_not_monotone(self):
        class TouchingEvaluator(GammaEvaluator):
            n_charges = 1

            def interval_in_resolvent_set(self, a, b):
                return a <= b

            def at(self, z):
                return EvaluationPoint(np.array([[(np.real(z) - 2.0) ** 2 + 1e-14]]))

        problem = ExtensionProblem(TouchingEvaluator(), ThetaMatrix([[0.0]]))
        with pytest.raises(PencilNotMonotone):
            scan_spectrum(problem, (1.0, 3.0))


def _negative_count(theta, ps, lam):
    """Negative eigenvalues of the pencil built in complex arithmetic."""
    return int(np.sum(np.linalg.eigvalsh(theta + complex_gamma_matrix(ps, lam)) < 0.0))


def _is_root_double(f, x):
    """Whether x is a double where f is zero, or the one of an adjacent
    pair with ``f(lo) < 0 < f(hi)`` where |f| is smaller (lo on a tie)."""
    fx, fb, fa = f(x), f(float(np.nextafter(x, -np.inf))), f(float(np.nextafter(x, np.inf)))
    return (fx == 0.0
            or (fx < 0.0 < fa and abs(fx) <= abs(fa))
            or (fb < 0.0 < fx and abs(fx) < abs(fb)))


class TestRootDouble:
    """The root search on the doubles: a bracket of two ordinals, shrunk
    by interpolation steps and bisection to two adjacent doubles."""

    @staticmethod
    def _single_step_walk(f, x0, f0, end):
        # the walk one double at a time that the scan once ran
        while f0 != 0.0:
            x1 = float(np.nextafter(x0, end))
            f1 = f(x1)
            if f1 == 0.0 or (f1 < 0.0) != (f0 < 0.0):
                return x1 if abs(f1) < abs(f0) else x0
            x0, f0 = x1, f1
        return x0

    def test_ordinals_count_signed_doubles(self):
        from kreinx.spectral import _double, _ordinal

        x = -3 * 5e-324
        for n in range(-3, 4):
            assert _ordinal(x) == n and _double(n) == x
            x = float(np.nextafter(x, 1.0))
        assert _ordinal(-0.0) == 0
        for x in (2.5e-9, -7.25e-9, 1.0, -np.finfo(float).max):
            assert _double(_ordinal(x)) == x
            assert _ordinal(float(np.nextafter(x, np.inf))) == _ordinal(x) + 1

    @pytest.mark.parametrize("x, n", [
        (0.0, 0),
        (-0.0, 0),
        (5e-324, 1),
        (-5e-324, -1),
        (np.finfo(float).smallest_normal, 0x0010000000000000),
        (-np.finfo(float).smallest_normal, -0x0010000000000000),
        (np.finfo(float).max, 0x7FEFFFFFFFFFFFFF),
        (-np.finfo(float).max, -0x7FEFFFFFFFFFFFFF),
    ])
    def test_edge_ordinals(self, x, n):
        from kreinx.spectral import _double, _ordinal

        # the ordinal is the bit pattern of |x| read as an int64, signed
        # like x; the numpy view is the reference
        assert n == int(np.float64(abs(x)).view(np.int64)) * (1 if x > 0.0 else -1)
        assert _ordinal(float(x)) == n
        assert _double(n) == x and type(_double(n)) is float

    @pytest.mark.parametrize("x0, offset, end, most", [
        (1.0, 3, 2.0, 2),
        (1.0, 16, 2.0, 2),
        (1.0, 17, 2.0, 2),
        (2.5e-9, 40_000, 7.25e-9, 4),
        (2.5e-9, -40_000, 9.25e-10, 4),
        (-1e-320, 30_000, 1.0, 16),
        (1e-320, -30_000, -1.0, 16),
    ])
    def test_matches_the_single_step_walk_on_a_monotone_branch(self, x0, offset, end, most):
        from kreinx.spectral import _ordinal, _root_double

        # f is negative up to the double ``offset`` doubles from x0 and
        # positive above it, smallest in modulus just above it
        root = _ordinal(x0) + offset
        calls = []

        def f(x):
            calls.append(x)
            return float(_ordinal(x) - root) - 0.75

        f0, f_end = f(x0), f(end)
        want = self._single_step_walk(f, x0, f0, end)
        calls.clear()
        got = _root_double(f, x0, f0, end, f_end) if f0 < 0.0 else _root_double(f, end, f_end, x0, f0)
        assert got == want
        # where f is linear in x the secant lands next to the sign change
        # and the neighbour closes the bracket; a bracket across binades,
        # or across zero, needs a few more steps
        assert len(calls) <= most

    def test_noisy_branch_returns_an_adjacent_sign_change(self):
        from kreinx.spectral import _double, _ordinal, _root_double

        # signs flip at ulp scale: - - - - + - + ... from x0
        x0 = 0.75
        pattern = [-1.0, -2.0, -1.0, -1.0, 3.0, -1.0, 1.0] + [1.0] * 20

        def f(x):
            return pattern[_ordinal(x) - _ordinal(x0)]

        end = _double(_ordinal(x0) + len(pattern) - 1)
        got = _root_double(f, x0, f(x0), end, f(end))
        assert _is_root_double(f, got)
        assert got in (_double(_ordinal(x0) + 3), _double(_ordinal(x0) + 5))

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    @pytest.mark.parametrize("shape", ["step", "ordinal", "arctan"])
    @pytest.mark.parametrize("window, root", [
        ((-1.7e308, 1.7e308), 0.0),
        ((-1.7e308, 1.7e308), 1e-9),
        ((-1.7e308, 1.7e308), -3.5e200),
        ((-1.7e308, 1.7e308), 1.6e308),
        ((1e-300, 1e300), 2.5e-9),
        ((-1.0, 1.0), 1e-310),
    ])
    def test_any_bracket_in_at_most_192_evaluations(self, window, root, shape, scale):
        # products of values underflow near 1e-300 and overflow near 1e300,
        # equal values leave the inverse quadratic undefined, and x_hi - x_lo
        # overflows on the widest window: no step may raise or stall
        from kreinx.spectral import _ordinal, _root_double

        n_root = _ordinal(root)
        shapes = {
            "step": lambda x: -1.0 if x < root else 1.0,
            "ordinal": lambda x: (_ordinal(x) - n_root - 0.5) / 2.0**64,
            "arctan": lambda x: math.atan(x - root),
        }
        calls = []

        def f(x):
            calls.append(x)
            return scale * shapes[shape](x)

        a, b = window
        fa, fb = f(a), f(b)
        assert fa < 0.0 < fb
        calls.clear()
        got = _root_double(f, a, fa, b, fb)
        assert len(calls) <= 3 * 64
        assert a < got < b
        assert _is_root_double(f, got)

    def test_small_energy_root_in_few_pencil_evaluations(self):
        # 1-d, one point: theta - 1/(2 sqrt z) = 0 at z0 = 1/(4 theta^2) =
        # 2.5e-9, where brentq's absolute xtol spans about 1e9 doubles
        from kreinx import krein, spectral

        theta = 1e4
        _, problem = laplacian_problem(1, [0.0], theta)
        evals = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "gamma_theta", lambda *a: evals.append(1) or krein.gamma_theta(*a))
            rep = scan_spectrum(problem, (9.25e-10, 7.25e-9))
        assert len(rep.roots) == 1
        z0 = 1.0 / (4.0 * theta**2)
        assert abs(rep.roots[0].z0 - z0) <= 1e-12 * z0
        assert len(evals) <= 150


class TestLaplacianScanCouplings:
    """A real coupling makes the Laplacian pencil real at real lambda, a
    complex hermitian one keeps it complex (the benchmark sends only real
    ones); the scan must hold on both."""

    @pytest.mark.parametrize("dim, alpha, z0", [
        (1, 0.4, 1.0 / (4.0 * 0.4**2)),
        (2, -0.1, 4.0 * np.exp(0.4 * np.pi - 2.0 * np.euler_gamma)),
        (3, -0.1, 16.0 * np.pi**2 * 0.01),
    ])
    def test_single_point_closed_form(self, dim, alpha, z0):
        _, problem = laplacian_problem(dim, np.zeros((1, dim)), alpha)
        assert problem.theta.entries.dtype == np.float64
        rep = scan_spectrum(problem, (0.4 * z0, 2.5 * z0))
        assert len(rep.roots) == 1 and rep.roots[0].multiplicity == 1
        assert abs(rep.roots[0].z0 - z0) <= 1e-12 * z0
        assert np.array_equal(rep.roots[0].charge, [1.0])

    @pytest.mark.parametrize("dim, points, alpha, window, count", [
        (1, [0.0, 0.3, 0.7], 0.6, (0.01, 20.0), 1),
        (2, [[1.0, 0.0], [0.0, 1.3], [0.0, 0.0]], -0.15, (1e-3, 200.0), 3),
        (3, [[1.0, 0.0, 0.0], [0.0, 1.3, 0.0], [0.0, 0.0, 0.8]], -0.5, (0.01, 200.0), 3),
    ])
    def test_complex_hermitian_coupling(self, dim, points, alpha, window, count):
        ps = PointSet(dim, points)
        skew = 0.15j * (np.eye(3, k=1) - np.eye(3, k=-1))
        theta = alpha * np.eye(3) + 0.1 * (np.eye(3, k=1) + np.eye(3, k=-1)) + skew
        problem = ExtensionProblem(LaplacianPointEvaluator(ps), ThetaMatrix(theta))
        assert problem.theta.entries.dtype == np.complex128
        rep = scan_spectrum(problem, window)
        assert _negative_count(theta, ps, window[0]) - _negative_count(theta, ps, window[1]) == count
        assert sum(r.multiplicity for r in rep.roots) == count and rep.warnings == ()
        # Gamma is real at real lambda, so conj(theta) + Gamma = conj(theta + Gamma):
        # the same roots, with conjugated charges
        mirror = scan_spectrum(replace(problem, theta=ThetaMatrix(theta.conj())), window)
        for root, twin in zip(rep.roots, mirror.roots):
            pencil = theta + complex_gamma_matrix(ps, root.z0)
            assert np.linalg.norm(pencil @ root.charge) <= 1e-9
            assert np.any(np.abs(root.charge.imag) > 1e-3)
            assert abs(twin.z0 - root.z0) <= 1e-12 * root.z0
            assert np.allclose(twin.charge, root.charge.conj(), atol=1e-9)


class TestScanAgainstOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        n_charges=st.integers(1, 4),
    )
    def test_counts_and_positions_match_direct_eigs(self, seed, n, n_charges):
        # the Woodbury oracle builds the perturbed matrix and runs eigvalsh
        # on it; it shares no code with the pencil scan.  Each window
        # keeps 1% of its gap from the base spectrum
        n_charges = min(n_charges, n)
        model = random_model(seed, n, n_charges)
        theta = random_theta(seed + 1, n_charges)
        try:
            oracle = direct_eigs(model, theta)
        except OracleDegenerate:
            assume(False)
        problem = ExtensionProblem(MatrixEvaluator(model), theta)
        for lo, hi in zip(model.eigs[:-1], model.eigs[1:]):
            margin = 0.01 * (hi - lo)
            a, b = lo + margin, hi - margin
            if not a < b:
                continue
            rep = scan_spectrum(problem, (a, b))
            got = np.repeat(rep.positions(), [r.multiplicity for r in rep.roots])
            want = oracle[(oracle >= a) & (oracle <= b)]
            assert got.size == want.size
            assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))


class TestTwoPointSymmetry:
    def test_symmetric_regime(self):
        # for coupling above half the separation the sole root carries the
        # symmetric charge; the scalar branch equation is the oracle
        d, alpha = 1.0, 1.0
        ps, problem = laplacian_problem(1, [-d / 2.0, d / 2.0], alpha)
        k0 = brentq(
            lambda k: alpha - d / 2.0 - (1.0 + np.exp(-k * d)) / (2.0 * k),
            1e-6, 60.0, xtol=1e-15,
        )
        rep = scan_spectrum(problem, (0.05, 6.0))
        assert len(rep.roots) == 1
        assert abs(rep.roots[0].z0 - k0**2) <= 1e-9 * k0**2
        assert np.allclose(rep.roots[0].charge, [1.0 / SQRT2, 1.0 / SQRT2], atol=1e-12)

    def test_antisymmetric_regime(self):
        d, alpha = 1.0, -0.3
        ps, problem = laplacian_problem(1, [-d / 2.0, d / 2.0], alpha)
        k0 = brentq(
            lambda k: alpha + d / 2.0 - (1.0 - np.exp(-k * d)) / (2.0 * k),
            1e-6, 60.0, xtol=1e-15,
        )
        rep = scan_spectrum(problem, (0.05, 8.0))
        assert len(rep.roots) == 1
        assert abs(rep.roots[0].z0 - k0**2) <= 1e-9 * k0**2
        assert np.allclose(rep.roots[0].charge, [1.0 / SQRT2, -1.0 / SQRT2], atol=1e-12)

    def test_relabeling_points_permutes_charges(self):
        d, alpha = 1.0, -0.3
        _, problem = laplacian_problem(1, [-d / 2.0, d / 2.0], alpha)
        _, problem_swapped = laplacian_problem(1, [d / 2.0, -d / 2.0], alpha)
        rep = scan_spectrum(problem, (0.05, 8.0))
        rep_swapped = scan_spectrum(problem_swapped, (0.05, 8.0))
        # identical root positions, bitwise
        assert rep.roots[0].z0 == rep_swapped.roots[0].z0
        # the point -> charge assignment agrees up to one global phase
        q, qs = rep.roots[0].charge, rep_swapped.roots[0].charge
        per_point = {-d / 2.0: q[0], d / 2.0: q[1]}
        per_point_swapped = {d / 2.0: qs[0], -d / 2.0: qs[1]}
        phase = per_point_swapped[-d / 2.0] / per_point[-d / 2.0]
        assert abs(abs(phase) - 1.0) <= 1e-12
        for p in per_point:
            assert abs(per_point_swapped[p] - phase * per_point[p]) <= 1e-12

    @pytest.mark.parametrize("c, y", [((1.0, 1.0), (-0.5, 0.5)), ((2.0, 0.7), (-1.3, 0.4))])
    def test_two_delta_wells(self, c, y):
        # the wells -c1 delta(x - y1) - c2 delta(x - y2) need theta =
        # diag(1/c) + D/2 with the distance matrix D, as the zero-anchored
        # g0 couples the points; their bound states k^2 solve
        # (2k - c1)(2k - c2) = c1 c2 exp(-2 k d)
        d = abs(y[1] - y[0])
        dist = np.abs(np.subtract.outer(y, y))

        def secular(k):
            return (2.0 * k - c[0]) * (2.0 * k - c[1]) - c[0] * c[1] * np.exp(-2.0 * k * d)

        ks = np.linspace(1e-3, sum(c), 2001)
        want = [brentq(secular, lo, hi, xtol=1e-15) ** 2
                for lo, hi in zip(ks[:-1], ks[1:]) if secular(lo) * secular(hi) < 0.0]
        assert want
        window = (1e-4, sum(c) ** 2)
        ps = PointSet(1, list(y))
        problem = ExtensionProblem(LaplacianPointEvaluator(ps), ThetaMatrix(np.diag(1.0 / np.array(c)) + dist / 2.0))
        rep = scan_spectrum(problem, window)
        assert [r.multiplicity for r in rep.roots] == [1] * len(want)
        assert np.allclose(rep.positions(), want, rtol=1e-10, atol=0.0)
        # the diagonal theta alone is another coupling, with other roots
        got = scan_spectrum(replace(problem, theta=ThetaMatrix(np.diag(1.0 / np.array(c)))), window)
        assert got.positions().size != len(want) or not np.allclose(got.positions(), want, rtol=1e-3)

    def test_3d_two_points_lower_root_symmetric(self):
        d, alpha = 1.0, -0.1
        ps, problem = laplacian_problem(3, [[0.0, 0.0, 0.0], [d, 0.0, 0.0]], alpha)
        rep = scan_spectrum(problem, (0.05, 8.0))
        assert len(rep.roots) == 2
        lower = rep.roots[0]
        pencil = problem.theta.entries + problem.evaluator.at(lower.z0).gamma
        assert np.linalg.norm(pencil @ lower.charge) <= 1e-9
        assert np.allclose(lower.charge, [1.0 / SQRT2, 1.0 / SQRT2], atol=1e-10)
        upper = rep.roots[1]
        assert np.allclose(upper.charge, [1.0 / SQRT2, -1.0 / SQRT2], atol=1e-10)


class TestChargeVector:
    def test_single_charge_is_unity(self, two_level_problem):
        (root,) = scan_spectrum(two_level_problem, (1.5, 4.0)).roots
        assert root.z0 == pytest.approx(1.0 + SQRT2, rel=1e-14)
        assert np.allclose(root.charge, [1.0], atol=1e-15)

    def test_root_above_tol_root_has_a_verified_charge(self):
        # the scan's charge at a root whose residual 1.507e-10 exceeds
        # tol_root is still an eigenpair by the pencil and the oracle
        model = random_model(13, 6, 1)
        problem = ExtensionProblem(MatrixEvaluator(model), random_theta(14, 1))
        (root,) = scan_spectrum(problem, (5.119143372626481, 5.124013191433564)).roots
        assert root.residual > problem.tol_root
        assert np.array_equal(root.charge, [1.0])
        report = verify_eigenpair(problem, root.z0, root.charge)
        assert [c.name for c in report.checks] == [
            "eigenpair/pencil_kernel", "eigenpair/oracle_action"]
        assert report.passed

    def test_phase_fixing(self):
        d, alpha = 1.0, -0.3
        _, problem = laplacian_problem(1, [-d / 2.0, d / 2.0], alpha)
        rep = scan_spectrum(problem, (0.05, 8.0))
        q = rep.roots[0].charge
        assert q[0].real > 0 and abs(q[0].imag) < 1e-15
        assert np.linalg.norm(q) == pytest.approx(1.0)


class TestEigenfunction:
    def test_1d_closed_form(self):
        ps = PointSet(1, [0.0])
        assert eigenfunction_eval(ps, [1.0], 1.0, 0.0) == pytest.approx(0.5)
        assert eigenfunction_eval(ps, [1.0], 1.0, 1.0) == pytest.approx(
            np.exp(-1.0) / 2.0
        )

    def test_3d_closed_form(self):
        ps = PointSet(3, [[0.0, 0.0, 0.0]])
        got = eigenfunction_eval(ps, [1.0], 1.0, [1.0, 0.0, 0.0])
        assert got == pytest.approx(np.exp(-1.0) / (4.0 * np.pi), rel=1e-14)

    def test_zero_charge(self):
        ps = PointSet(1, [0.0])
        xs = np.linspace(-2.0, 2.0, 11)
        assert np.all(eigenfunction_eval(ps, [0.0], 1.0, xs) == 0)

    def test_charge_enters_conjugated(self):
        ps = PointSet(1, [0.0])
        val = eigenfunction_eval(ps, [1j], 1.0, 0.0)
        assert val == pytest.approx(-0.5j)

    @pytest.mark.parametrize("z0, q", [(1.0, [1.0, 0.0]), (0.37, [0.6 + 0.2j, -0.3])])
    def test_1d_distributional_equation(self, z0, q):
        # psi'' = z0 psi between the points, and psi' jumps by -conj(q_j)
        # at y_j, for any (z0, q): second differences with Richardson
        # extrapolation across each point, plain ones away from them
        ps, q = PointSet(1, [-0.5, 0.7]), np.asarray(q, dtype=complex)
        h = 1e-3
        xs = np.arange(-4.0, 4.0, h)
        vals = eigenfunction_eval(ps, q, z0, xs)
        second = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / h**2
        away = np.min(np.abs(xs[1:-1, None] - ps.points[None, :, 0]), axis=1) > 1.5 * h
        assert np.max(np.abs(second[away] - z0 * vals[1:-1][away])) <= 1e-6
        for j, yj in enumerate(ps.points[:, 0]):
            ests = []
            for hh in (h, h / 2.0):
                f3 = eigenfunction_eval(ps, q, z0, np.array([yj - hh, yj, yj + hh]))
                ests.append((f3[2] - 2.0 * f3[1] + f3[0]) / hh)
            assert abs(2.0 * ests[1] - ests[0] + np.conj(q[j])) <= 1e-6

    def test_singularity_guard(self):
        ps = PointSet(3, [[0.0, 0.0, 0.0]])
        with pytest.raises(EvaluationAtSingularity):
            eigenfunction_eval(ps, [1.0], 1.0, [0.0, 0.0, 0.0])

    def test_l2_norms(self):
        # 1d: |e^{-|x|}/2|_2 = 1/2; 3d: |e^{-r}/(4 pi r)|_2 = (8 pi)^{-1/2}
        assert eigenfunction_l2_norm(PointSet(1, [0.0]), [1.0], 1.0) == pytest.approx(
            0.5, abs=1e-6
        )
        assert eigenfunction_l2_norm(
            PointSet(3, [[0.0, 0.0, 0.0]]), [1.0], 1.0
        ) == pytest.approx(np.sqrt(1.0 / (8.0 * np.pi)), rel=1e-8)

    def test_l2_norm_three_points_against_mpmath(self):
        # |psi|^2 with psi(x) = sum_j conj(q_j) e^{-kappa |x - y_j|} / (2 kappa),
        # integrated by mpmath between the kinks
        mp = pytest.importorskip("mpmath")
        ys = [-0.7, 0.2, 1.9]
        q = [1.0, -0.4 + 0.3j, 0.25j]
        z0 = 1.7
        with mp.workdps(30):
            kappa = mp.sqrt(z0)

            def density(x):
                psi = sum(
                    mp.conj(mp.mpc(qj)) * mp.exp(-kappa * abs(x - y)) / (2 * kappa)
                    for qj, y in zip(q, ys)
                )
                return abs(psi) ** 2

            want = float(mp.sqrt(mp.quad(density, [-mp.inf] + ys + [mp.inf])))
        got = eigenfunction_l2_norm(PointSet(1, ys), q, z0)
        assert got == pytest.approx(want, rel=1e-12)


class TestVerifyEigenpair:
    def test_1d_residuals(self):
        # alpha = 1/2 puts the root at z0 = 1; a Laplacian backend has only
        # the pencil row (every source superposition solves the equation)
        ps, problem = laplacian_problem(1, [0.0], 0.5)
        rep = scan_spectrum(problem, (0.5, 2.0))
        z0, q = rep.roots[0].z0, rep.roots[0].charge
        report = verify_eigenpair(problem, z0, q)
        assert report.passed
        assert [c.name for c in report.checks] == ["eigenpair/pencil_kernel"]
        assert report.checks[0].residual <= 1e-9

    def test_1d_non_eigenpair_fails(self):
        ps = PointSet(1, [-0.5, 0.7])
        problem = ExtensionProblem(
            LaplacianPointEvaluator(ps), ThetaMatrix([[0.3, 0.1], [0.1, 0.5]])
        )
        report = verify_eigenpair(problem, 0.37, [0.6 + 0.2j, -0.3])
        assert not report.passed
        assert report.checks[0].name == "eigenpair/pencil_kernel"
        assert report.checks[0].residual == pytest.approx(0.489, abs=1e-3)
        assert report.rows() == [("eigenpair/pencil_kernel", report.checks[0].residual, 1e-9, 0)]

    def test_matrix_oracle_action(self, two_level_problem):
        rep = scan_spectrum(two_level_problem, (1.5, 4.0))
        report = verify_eigenpair(
            two_level_problem, rep.roots[0].z0, rep.roots[0].charge
        )
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["eigenpair/oracle_action"].residual <= 1e-10

    def test_rows_are_sorted_and_pass(self, two_level_problem):
        rep = scan_spectrum(two_level_problem, (1.5, 4.0))
        rows = verify_eigenpair(
            two_level_problem, rep.roots[0].z0, rep.roots[0].charge
        ).rows()
        assert [row[0] for row in rows] == ["eigenpair/oracle_action", "eigenpair/pencil_kernel"]
        assert all(row[3] == 1 for row in rows)

    def test_zero_charge_passes(self):
        ps, problem = laplacian_problem(1, [0.0], 0.5)
        report = verify_eigenpair(problem, 1.0, np.zeros(1))
        assert report.passed
        assert all(c.residual == 0.0 for c in report.checks)


def test_spectral_imports_only_krein_and_errors():
    # the scan needs the pencil and the error types; eigenpair checks and
    # eigenfunctions live in verify and greens
    source = (Path(__file__).resolve().parent.parent / "src" / "kreinx" / "spectral.py").read_text()
    relative = {
        node.module
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }
    assert relative <= {"krein", "errors"}


def _outcome(problem, window):
    """Everything a scan reports, or the error it raised."""
    try:
        rep = scan_spectrum(problem, window)
    except KreinxError as exc:
        return type(exc).__name__, str(exc)
    roots = [(r.z0, r.charge.tobytes(), r.residual, r.multiplicity) for r in rep.roots]
    return roots, rep.warnings


def _checked_outcome(problem, window):
    """``_outcome`` with every scan point's pencil checked by
    ``hermitian_part``, as the scan did before it checked only the ends."""
    from kreinx import krein, spectral

    def checked(pr, lam, exact):
        p = krein.gamma_theta(pr, lam)
        return p, np.linalg.eigvalsh(krein.hermitian_part(p))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_interior_values", checked)
        return _outcome(problem, window)


@st.composite
def _laplacian_sets(draw, dim):
    n = draw(st.integers(1, 5))
    pts = draw(st.lists(
        st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim),
        min_size=n, max_size=n,
    ))
    alpha = draw(st.floats({1: 0.05, 2: -0.3, 3: -0.8}[dim], {1: 1.0, 2: 0.1, 3: -0.05}[dim]))
    noise = np.array(draw(st.lists(st.floats(-0.1, 0.1), min_size=n * n, max_size=n * n)))
    noise = noise.reshape(n, n)
    theta = alpha * np.eye(n) + (noise + noise.T) / 2.0
    if draw(st.booleans()):
        skew = np.triu(noise, 1) * 1j
        theta = theta + skew - skew.T
    return np.array(pts), theta


class TestHermiticityCheckedOncePerScan:
    """The scan checks hermiticity at its two window ends and at each
    root, and evaluates the points in between unchecked; against the
    scan that checks every point, nothing it reports may move."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_laplacian_matches_checked_scan_bit_for_bit(self, dim, data):
        pts, theta = data.draw(_laplacian_sets(dim))
        try:
            ps = PointSet(dim, pts)
        except InvariantError:
            assume(False)
        problem = ExtensionProblem(LaplacianPointEvaluator(ps), ThetaMatrix(theta))
        window = (1e-3, 60.0)
        got = _outcome(problem, window)
        assert got == _checked_outcome(problem, window)

    @pytest.mark.parametrize("poly", [(0.0, 0.0, -1.0), (0.0, 0.5, -1.0)], ids=["even", "odd"])
    def test_multiplier_matches_checked_scan_bit_for_bit(self, poly):
        from kreinx import Multiplier1D, MultiplierAnchoredEvaluator

        ev = MultiplierAnchoredEvaluator(Multiplier1D(poly=poly), PointSet(1, [0.0, 0.8]), 1.0)
        problem = ExtensionProblem(ev, ThetaMatrix([[0.05, 0.1j], [-0.1j, 0.0]]))
        got = _outcome(problem, (0.5, 3.0))
        assert isinstance(got[0], list) and got[0]
        assert got == _checked_outcome(problem, (0.5, 3.0))

    @pytest.mark.parametrize("seed", range(12))
    def test_matrix_matches_checked_scan_bit_for_bit(self, seed):
        # the matrix backend's pencil is hermitian only to rounding, so the
        # scan symmetrizes its interior pencils as hermitian_part does
        model = random_model(seed, 6, 1 + seed % 3)
        problem = ExtensionProblem(MatrixEvaluator(model), random_theta(seed + 1, 1 + seed % 3))
        for lo, hi in zip(model.eigs[:-1], model.eigs[1:]):
            window = (lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo))
            assert _outcome(problem, window) == _checked_outcome(problem, window)

    def test_not_hermitian_evaluator_raises(self):
        class SkewEvaluator(GammaEvaluator):
            n_charges = 2

            def interval_in_resolvent_set(self, a, b):
                return a <= b

            def at(self, z):
                x = float(np.real(z))
                return EvaluationPoint(np.array([[x, 1.0], [0.0, x - 1.0]]))

        problem = ExtensionProblem(SkewEvaluator(), ThetaMatrix(np.zeros((2, 2))))
        with pytest.raises(NotHermitian):
            scan_spectrum(problem, (-2.0, 3.0))

    @pytest.mark.parametrize("problem", [
        laplacian_problem(3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], -0.1)[1],
        ExtensionProblem(
            LaplacianPointEvaluator(PointSet(2, [[1.0, 0.0], [0.0, 1.3], [0.0, 0.0]])),
            ThetaMatrix(-0.15 * np.eye(3) + 0.05j * (np.eye(3, k=1) - np.eye(3, k=-1))),
        ),
        ExtensionProblem(MatrixEvaluator(MatrixModel(np.diag([-1.0, 1e3]), np.eye(2))),
                         ThetaMatrix([[0.3, 0.2j], [-0.2j, 0.1]])),
    ], ids=["laplacian3d", "laplacian2d-complex", "matrix"])
    def test_hermitian_part_runs_at_the_ends_and_roots_only(self, problem):
        from kreinx import krein, spectral

        window = (1e-3, 200.0)
        checks, pencils = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "hermitian_part", lambda m: checks.append(1) or krein.hermitian_part(m))
            mp.setattr(spectral, "gamma_theta", lambda pr, z: pencils.append(z) or krein.gamma_theta(pr, z))
            rep = scan_spectrum(problem, window)
        assert rep.roots
        assert len(checks) <= 2 + len(rep.roots)
        assert len(pencils) > 2 * len(checks)
        # one pencil evaluation per distinct point: a root reuses its scan point's
        assert len(pencils) == len(set(pencils))
