import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinx import (
    ExtensionProblem,
    GammaEvaluator,
    LaplacianPointEvaluator,
    MatrixEvaluator,
    NotHermitian,
    OutsideResolventSet,
    PointSet,
    SingularPencil,
    ThetaMatrix,
    UnsupportedAction,
    admissible_real,
    boundary_residual,
    gamma_theta,
    krein_apply,
    krein_resolvent,
    woodbury_extension,
)
from kreinx.matrixmodel import base_resolvent, random_model, random_theta

from conftest import rel_err


class TestThetaMatrix:
    def test_exact_hermiticity_required(self):
        with pytest.raises(NotHermitian):
            ThetaMatrix([[0.0, 1.0], [0.0, 0.0]])

    def test_accepts_hermitian(self):
        t = ThetaMatrix([[1.0, 1j], [-1j, 2.0]])
        assert t.n == 2

    def test_shifted(self):
        t = ThetaMatrix([[1.0]]).shifted(2.0)
        assert t.entries[0, 0] == 3.0


class TestGammaTheta:
    def test_at_zero(self, two_level_problem):
        # the zero-anchored difference vanishes at the anchor
        assert np.allclose(gamma_theta(two_level_problem, 0.0), [[1.0]], atol=1e-15)

    def test_at_two(self, two_level_problem):
        # gamma(2) = -2*2/(4-1) = -4/3
        assert np.allclose(
            gamma_theta(two_level_problem, 2.0), [[1.0 - 4.0 / 3.0]], atol=1e-14
        )

    def test_laplacian_3d_tuned_coupling(self):
        # coupling -1/(4 pi) cancels the renormalized diagonal at z = 1
        ps = PointSet(3, [[0.0, 0.0, 0.0]])
        problem = ExtensionProblem(
            LaplacianPointEvaluator(ps), ThetaMatrix([[-1.0 / (4.0 * np.pi)]])
        )
        assert abs(gamma_theta(problem, 1.0)[0, 0]) < 1e-15

    def test_outside_resolvent_set(self, two_level_problem):
        with pytest.raises(OutsideResolventSet):
            gamma_theta(two_level_problem, 1.0)


class ConstantGammaEvaluator(GammaEvaluator):
    """A fixed trace matrix at every real point."""

    def __init__(self, g):
        self.g = np.asarray(g, dtype=complex)

    @property
    def n_charges(self):
        return self.g.shape[0]

    def in_resolvent_set(self, z):
        return True

    def interval_in_resolvent_set(self, a, b):
        return a <= b

    def gamma(self, z):
        return self.g


def _window(g, c):
    """admissible_real for the trace matrix g and the coupling c * I."""
    ev = ConstantGammaEvaluator(g)
    return admissible_real(ExtensionProblem(ev, ThetaMatrix(c * np.eye(ev.n_charges))), 0.0)


class TestAdmissibleRealEigenvalueBounds:
    # with theta = c * I the plus window is min_eig(g) > -c and the minus
    # window is max_eig(g) < -c, so the window edges sit at the extreme
    # eigenvalues of g
    def test_identity(self):
        assert _window(np.eye(3), 0.0) == "plus"
        assert _window(np.eye(3), -1.0) == "none"
        assert _window(np.eye(3), -1.5) == "minus"

    def test_diagonal(self):
        g = np.diag([3.0, -2.0])
        assert _window(g, 2.01) == "plus"
        assert _window(g, 2.0) == "none"  # strict inequality at the edge
        assert _window(g, -3.01) == "minus"

    def test_offdiagonal(self):
        # characteristic polynomial lambda^2 - 1
        g = [[0.0, 1.0], [1.0, 0.0]]
        assert _window(g, 1.5) == "plus"
        assert _window(g, 0.0) == "none"
        assert _window(g, -1.5) == "minus"

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitian):
            _window([[0.0, 1.0], [0.0, 0.0]], 0.0)


class TestKreinApply:
    def test_zero_trace_reduces_to_base_resolvent(self, two_level_model, two_level_problem):
        # f = (zI - a) v with v in the kernel of tau: the correction vanishes
        z = 2.0 + 0.5j
        v = np.array([1.0, -1.0]) / np.sqrt(2.0)
        f = (z * np.eye(2) - two_level_model.a) @ v
        got = krein_apply(two_level_problem, z, f)
        want = base_resolvent(two_level_model, z) @ f
        assert np.allclose(got, want, rtol=0, atol=1e-14)

    def test_matches_woodbury_oracle(self, two_level_model, two_level_problem):
        rng = np.random.default_rng(3)
        b = woodbury_extension(two_level_model, two_level_problem.theta)
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        got = krein_apply(two_level_problem, 2j, f)
        want = np.linalg.solve(2j * np.eye(2) - b, f)
        assert rel_err(got, want) <= 1e-10

    def test_pole_raises(self, two_level_problem):
        f = np.array([1.0, 0.0])
        with pytest.raises(SingularPencil):
            krein_apply(two_level_problem, 1.0 + np.sqrt(2.0), f)

    @pytest.mark.parametrize("z", [complex("inf"), complex("nan"), complex(0.5, float("inf"))])
    def test_non_finite_z_is_outside_the_resolvent_set(self, two_level_problem, z):
        # rejected before the pencil reaches the SVD
        with pytest.raises(OutsideResolventSet):
            krein_apply(two_level_problem, z, np.array([1.0, 0.0]))


class TestKreinResolvent:
    """One resolvent per z, applied to many vectors."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_many_vectors_match_krein_apply_and_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 9, 3)
        problem = ExtensionProblem(MatrixEvaluator(model), random_theta(rng, 3))
        b = woodbury_extension(model, problem.theta)
        for z in (0.4 + 1.3j, -6.0 - 0.2j):
            resolvent = krein_resolvent(problem, z)
            for _ in range(4):
                f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
                got = resolvent(f)
                assert np.array_equal(got, krein_apply(problem, z, f))
                want = np.linalg.solve(z * np.eye(9) - b, f)
                assert rel_err(got, want) <= 1e-9

    def test_grid_backend_binds_the_evaluator_methods(self):
        from kreinx import LaplacianGrid1DEvaluator

        xs = np.linspace(-6.0, 6.0, 301)
        problem = ExtensionProblem(
            LaplacianGrid1DEvaluator(PointSet(1, [-0.5, 0.5]), xs),
            ThetaMatrix([[0.5, 0.0], [0.0, -0.25]]),
        )
        z = 1.5 + 0.4j
        resolvent = krein_resolvent(problem, z)
        for shift in (0.0, 0.7):
            f = np.exp(-((xs - shift) ** 2)) + 0j
            assert np.array_equal(resolvent(f), krein_apply(problem, z, f))

    @pytest.mark.parametrize("z, error", [
        (complex("inf"), OutsideResolventSet),
        (1.0, OutsideResolventSet),  # an eigenvalue of a
        (1.0 + np.sqrt(2.0), SingularPencil),  # a pole of the perturbation
    ])
    def test_raises_before_any_vector(self, two_level_model, z, error):
        class Recording(MatrixEvaluator):
            requested = 0

            def actions(self, z):
                Recording.requested += 1
                return super().actions(z)

        problem = ExtensionProblem(Recording(two_level_model), ThetaMatrix([[1.0]]))
        with pytest.raises(error):
            krein_resolvent(problem, z)
        assert Recording.requested == 0

    def test_backend_without_actions_raises_before_it_returns(self):
        problem = ExtensionProblem(
            LaplacianPointEvaluator(PointSet(1, [0.0, 1.0])),
            ThetaMatrix([[0.5, 0.0], [0.0, 0.5]]),
        )
        with pytest.raises(UnsupportedAction):
            krein_resolvent(problem, 1.5 + 0.4j)


class TestAdmissibleReal:
    def test_at_zero(self, two_level_problem):
        # gamma(0) = 0: 0 > -1 holds, 0 > 1 fails
        assert admissible_real(two_level_problem, 0.0) == "plus"

    def test_at_two(self, two_level_problem):
        # gamma(2) = -4/3: -4/3 > -1 fails; 4/3 > 1 holds
        assert admissible_real(two_level_problem, 2.0) == "minus"

    def test_huge_coupling_never_excluded(self, two_level_model):
        # when the trace matrix stays below the coupling scale, every sampled
        # point is in the plus window (the minus window needs the trace
        # matrix to sit below -1e6, which a norm bound < 1e6 rules out)
        problem = ExtensionProblem(
            MatrixEvaluator(two_level_model), ThetaMatrix([[1e6]])
        )
        for lam in (-0.5, 0.0, 0.5, 2.0, 5.0, 50.0):
            g = two_level_model.tau @ (
                base_resolvent(two_level_model, 0.0) - base_resolvent(two_level_model, lam)
            ) @ two_level_model.tau.conj().T
            assert np.max(np.abs(g)) < 1e6
            assert admissible_real(problem, lam) == "plus"

    def test_both_windows_reachable(self, two_level_model):
        # at the anchor the trace matrix vanishes, so an indefinite coupling
        # with positive and negative parts cannot occur for N = 1; a scalar
        # coupling of either sign lands in exactly one window
        plus = ExtensionProblem(MatrixEvaluator(two_level_model), ThetaMatrix([[2.0]]))
        minus = ExtensionProblem(MatrixEvaluator(two_level_model), ThetaMatrix([[-2.0]]))
        assert admissible_real(plus, 0.0) == "plus"
        assert admissible_real(minus, 0.0) == "minus"

    def test_outside_resolvent_set(self, two_level_problem):
        with pytest.raises(OutsideResolventSet):
            admissible_real(two_level_problem, -1.0)
        with pytest.raises(OutsideResolventSet):
            admissible_real(two_level_problem, float("inf"))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lam_frac=st.floats(0.05, 0.95),
        shift=st.floats(0.01, 100.0),
    )
    def test_plus_window_monotone_in_coupling(self, seed, lam_frac, shift):
        # enlarging the coupling by c*I, c > 0, never shrinks the plus window
        rng = np.random.default_rng(seed)
        model = random_model(rng, 6, 2)
        theta = random_theta(rng, 2)
        # a real point strictly inside a spectral gap
        eigs = np.sort(model.eigs)
        gaps = [(eigs[i], eigs[i + 1]) for i in range(len(eigs) - 1)]
        lo, hi = max(gaps, key=lambda g: g[1] - g[0])
        lam = lo + lam_frac * (hi - lo)
        if min(lam - lo, hi - lam) < 1e-6:
            return
        ev = MatrixEvaluator(model)
        before = admissible_real(ExtensionProblem(ev, theta), lam)
        after = admissible_real(ExtensionProblem(ev, theta.shifted(shift)), lam)
        if before in ("plus", "both"):
            assert after in ("plus", "both")


class TestBoundaryResidual:
    def test_zero_inputs(self, two_level_problem):
        out = boundary_residual(two_level_problem, np.zeros(1), np.zeros(1))
        assert np.all(out == 0)

    def test_bound_state_of_worked_example(self, two_level_model, two_level_problem):
        # at a pole z0 the trace of the regular part is -gamma(z0) q, so the
        # residual collapses to -(theta + gamma(z0)) q
        from kreinx import charge_vector, scan_spectrum
        from kreinx.matrixmodel import gamma as model_gamma

        z0 = scan_spectrum(two_level_problem, (1.5, 4.0)).positions()[0]
        q = charge_vector(two_level_problem, z0)
        trace_reg = -model_gamma(two_level_model, z0) @ q
        res = boundary_residual(two_level_problem, trace_reg, q)
        assert np.linalg.norm(res) <= 1e-10

    def test_laplacian_3d_exact_cancellation(self):
        ps = PointSet(3, [[0.0, 0.0, 0.0]])
        alpha = -1.0 / (4.0 * np.pi)
        problem = ExtensionProblem(LaplacianPointEvaluator(ps), ThetaMatrix([[alpha]]))
        q = np.array([1.0 + 0j])
        gamma_z0 = problem.evaluator.gamma(1.0)
        res = boundary_residual(problem, -gamma_z0 @ q, q)
        assert np.linalg.norm(res) < 1e-15


class TestGridBackendApply:
    def test_first_resolvent_identity_at_quadrature_tolerance(self):
        # the grid-native actions carry O(h^2) quadrature error, so the
        # perturbed family satisfies its resolvent identity to that order
        from kreinx import LaplacianGrid1DEvaluator, PointSet

        xs = np.linspace(-12.0, 12.0, 1201)
        ps = PointSet(1, [0.0])
        problem = ExtensionProblem(
            LaplacianGrid1DEvaluator(ps, xs), ThetaMatrix([[0.5]])
        )
        f = np.exp(-((xs - 0.4) ** 2))
        z, w = 2.0 + 0.3j, 1.0 - 0.6j
        lhs = krein_apply(problem, z, f) - krein_apply(problem, w, f)
        rhs = (w - z) * krein_apply(problem, z, krein_apply(problem, w, f))
        rel = np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))
        assert rel <= 5e-3

    def test_agrees_with_independent_quadrature(self):
        # correction term for one point: gz(|x|) * pencil^{-1} * (gz * f)(0),
        # with the trace integral done by adaptive quadrature instead of the
        # grid trapezoid rule
        from scipy.integrate import quad

        from kreinx import LaplacianGrid1DEvaluator, PointSet, gz

        xs = np.linspace(-12.0, 12.0, 2401)
        ps = PointSet(1, [0.0])
        theta = 0.5
        problem = ExtensionProblem(
            LaplacianGrid1DEvaluator(ps, xs), ThetaMatrix([[theta]])
        )
        z = 2.0
        f_fn = lambda t: np.exp(-((t - 0.4) ** 2))
        got = krein_apply(problem, z, f_fn(xs))

        kappa = np.sqrt(z)
        trace, _ = quad(lambda t: np.exp(-kappa * abs(t)) * f_fn(t) / (2 * kappa),
                        -12.0, 12.0, points=[0.0], limit=200)
        pencil = theta - 1.0 / (2.0 * kappa)
        x_probe = 0.8
        i_probe = int(np.argmin(np.abs(xs - x_probe)))
        base, _ = quad(
            lambda t: np.exp(-kappa * abs(xs[i_probe] - t)) * f_fn(t) / (2 * kappa),
            -12.0, 12.0, points=[xs[i_probe]], limit=200,
        )
        want = base + complex(gz(1, abs(xs[i_probe]), z)) * trace / pencil
        assert abs(got[i_probe] - want) <= 5e-4 * abs(want)


class TestPerturbedResolventFamily:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_first_resolvent_identity_and_adjoint(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 7, 3)
        theta = random_theta(rng, 3)
        problem = ExtensionProblem(MatrixEvaluator(model), theta)
        z, w = 1.0 + 2.2j, -3.0 + 0.7j
        f = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        g = rng.standard_normal(7) + 1j * rng.standard_normal(7)

        lhs = krein_apply(problem, z, f) - krein_apply(problem, w, f)
        rhs = (w - z) * krein_apply(problem, z, krein_apply(problem, w, f))
        assert rel_err(lhs, rhs) <= 1e-9

        ip_left = np.vdot(g, krein_apply(problem, z, f))
        ip_right = np.vdot(krein_apply(problem, np.conj(z), g), f)
        assert abs(ip_left - ip_right) / abs(ip_right) <= 1e-9
