import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinx import (
    ExtensionProblem,
    GammaEvaluator,
    InvariantError,
    LaplacianGrid1DEvaluator,
    LaplacianPointEvaluator,
    MatrixEvaluator,
    Multiplier1D,
    MultiplierAnchoredEvaluator,
    NotHermitian,
    OracleDegenerate,
    OutsideResolventSet,
    PointSet,
    SingularPencil,
    ThetaMatrix,
    UnsupportedAction,
    anchored_gamma_1d,
    gamma,
    gamma_matrix,
    gamma_theta,
    krein_apply,
    krein_resolvent,
    woodbury_extension,
)
from kreinx.krein import hermitian_part
from kreinx.matrixmodel import base_resolvent, random_model, random_problem_suite, random_theta

from conftest import rel_err


class Recording(MatrixEvaluator):
    """Matrix backend that counts the maps its points build."""

    def __init__(self, model):
        super().__init__(model)
        self.built = 0

    def at(self, z):
        point = super().at(z)

        def actions():
            self.built += 1
            return point.actions()

        return replace(point, actions=actions)


class TestThetaMatrix:
    def test_exact_hermiticity_required(self):
        with pytest.raises(NotHermitian):
            ThetaMatrix([[0.0, 1.0], [0.0, 0.0]])

    def test_accepts_hermitian(self):
        t = ThetaMatrix([[1.0, 1j], [-1j, 2.0]])
        assert t.n == 2

    @pytest.mark.parametrize("entries, dtype", [
        ([[0.5, -0.2], [-0.2, 1.25]], np.float64),
        ([[0.5 + 0j, -0.2 - 0j], [-0.2 + 0j, 1.25]], np.float64),
        ([[1, 2], [2, 3]], np.float64),
        ([[0.5, 0.1 + 1e-300j], [0.1 - 1e-300j, 1.25]], np.complex128),
        ([[1.0, 1j], [-1j, 2.0]], np.complex128),
    ])
    def test_float64_exactly_when_real(self, entries, dtype):
        t = ThetaMatrix(entries)
        assert t.entries.dtype == dtype
        assert np.array_equal(t.entries, np.array(entries, dtype=complex))
        assert not t.entries.flags.writeable

    def test_rejects_non_finite_real_entries(self):
        with pytest.raises(InvariantError, match="finite"):
            ThetaMatrix([[np.inf]])

    @pytest.mark.parametrize("entries, shape", [
        ([[1.0, 0.0]], (1, 2)),
        ([], (0,)),
        ([[]], (1, 0)),
    ])
    def test_rejects_a_shape_that_is_not_square_and_nonempty(self, entries, shape):
        with pytest.raises(InvariantError) as err:
            ThetaMatrix(entries)
        assert err.value.violations == (
            f"coupling matrix must be square and nonempty, got shape {shape}",
        )


class TestHermitianPart:
    def test_real_stays_real(self):
        m = np.array([[1.0, 2.0], [2.0 + 1e-13, -1.0]])
        h = hermitian_part(m)
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)
        assert h[0, 1] == (m[0, 1] + m[1, 0]) / 2.0

    def test_complex_stays_complex(self):
        m = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -1.0]])
        h = hermitian_part(m)
        assert h.dtype == np.complex128
        assert np.array_equal(h, m)

    @pytest.mark.parametrize("m", [np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones((2, 3))])
    def test_rejects(self, m):
        with pytest.raises(NotHermitian):
            hermitian_part(m)

    @pytest.mark.parametrize("off", [1e308, 1e308 + 1e308j], ids=["real", "complex"])
    def test_an_overflowing_sum_is_halved_first(self, off):
        m = np.array([[1e308, off], [np.conj(off), 1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = hermitian_part(m)
        assert np.array_equal(h, m)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 4),
        entries=st.lists(st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([5e-324, -5e-324, 1e-310, -0.0, 1.7976931348623157e308, -1e308]),
        ), min_size=16, max_size=16),
        nudge=st.lists(st.booleans(), min_size=16, max_size=16),
    )
    def test_bits_of_every_finite_sum_are_unchanged(self, n, entries, nudge):
        m = np.array(entries[: n * n]).reshape(n, n)
        m = np.triu(m) + np.triu(m, 1).T
        # a one-ulp defect below the diagonal, within the tolerance
        lower = np.tril(np.array(nudge[: n * n]).reshape(n, n), -1)
        m = np.where(lower, np.nextafter(m, 0.0), m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = hermitian_part(m)
        with np.errstate(over="ignore"):
            plain = (m + m.T) / 2.0
        finite = np.isfinite(plain)
        assert np.isfinite(h).all()
        assert h[finite].tobytes() == plain[finite].tobytes()
        assert np.array_equal(h[~finite], (m / 2.0 + m.T / 2.0)[~finite])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_laplacian_pencil_is_real_at_real_z_with_real_coupling(self, dim):
        ps = PointSet(dim, np.eye(3, dim) if dim > 1 else [0.0, 1.0, 2.5])
        real = ExtensionProblem(LaplacianPointEvaluator(ps), ThetaMatrix(-0.2 * np.eye(3)))
        assert hermitian_part(gamma_theta(real, 1.5)).dtype == np.float64
        assert gamma_theta(real, 1.5 + 0.5j).dtype == np.complex128
        theta = -0.2 * np.eye(3) + 0.05j * (np.eye(3, k=1) - np.eye(3, k=-1))
        cplx = ExtensionProblem(LaplacianPointEvaluator(ps), ThetaMatrix(theta))
        assert hermitian_part(gamma_theta(cplx, 1.5)).dtype == np.complex128


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

    def test_bound_state_charge_spans_the_pencil_kernel(self, two_level_problem):
        # the coupling condition of a bound state (z0, q): the trace of the
        # regular part, -gamma(z0) q, equals theta q
        from kreinx import scan_spectrum

        (root,) = scan_spectrum(two_level_problem, (1.5, 4.0)).roots
        assert np.linalg.norm(gamma_theta(two_level_problem, root.z0) @ root.charge) <= 1e-10

    def test_stack_matches_each_point(self, two_level_problem):
        zs = np.array([0.0, 2.0, 0.5 + 1.5j])
        stack = gamma_theta(two_level_problem, zs)
        assert stack.shape == (3, 1, 1)
        for z, pencil in zip(zs, stack):
            assert rel_err(pencil, gamma_theta(two_level_problem, complex(z))) <= 1e-15

    def test_array_on_a_one_point_backend_is_a_typed_error(self):
        problem = ExtensionProblem(
            LaplacianPointEvaluator(PointSet(1, [0.0, 1.0])),
            ThetaMatrix([[0.5, 0.0], [0.0, 0.5]]),
        )
        for call in (gamma_theta, krein_resolvent):
            with pytest.raises(UnsupportedAction, match="one point at a time"):
                call(problem, np.array([1.0, 2.0]))


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
        xs = np.linspace(-6.0, 6.0, 301)
        problem = ExtensionProblem(
            LaplacianGrid1DEvaluator(PointSet(1, [-0.5, 0.5]), -6.0, 6.0, 301),
            ThetaMatrix([[0.5, 0.0], [0.0, -0.25]]),
        )
        z = 1.5 + 0.4j
        resolvent = krein_resolvent(problem, z)
        for shift in (0.0, 0.7):
            f = np.exp(-((xs - shift) ** 2)) + 0j
            assert np.array_equal(resolvent(f), krein_apply(problem, z, f))

    def test_too_coarse_grid_raises_before_it_returns(self):
        from kreinx import GridTooCoarse, LaplacianGrid1DEvaluator

        # step 2.0 against 1/(4 sqrt(4)) = 0.125
        problem = ExtensionProblem(
            LaplacianGrid1DEvaluator(PointSet(1, [0.0]), -8.0, 8.0, 9),
            ThetaMatrix([[0.5]]),
        )
        with pytest.raises(GridTooCoarse):
            krein_resolvent(problem, 4.0)

    def test_grid_trace_map_rejects_samples_off_the_grid(self):
        xs = np.linspace(-6.0, 6.0, 301)
        _, gbreve, _ = LaplacianGrid1DEvaluator(PointSet(1, [0.0]), -6.0, 6.0, 301).at(1.5).actions()
        assert gbreve(np.exp(-(xs**2))).shape == (1,)
        with pytest.raises(InvariantError, match="does not match the grid"):
            gbreve(np.ones(300))

    @pytest.mark.parametrize("z, error", [
        (complex("inf"), OutsideResolventSet),
        (1.0, OutsideResolventSet),  # an eigenvalue of a
        (1.0 + np.sqrt(2.0), SingularPencil),  # a pole of the perturbation
    ])
    def test_raises_before_any_vector(self, two_level_model, z, error):
        ev = Recording(two_level_model)
        problem = ExtensionProblem(ev, ThetaMatrix([[1.0]]))
        with pytest.raises(error):
            krein_resolvent(problem, z)
        assert ev.built == 0
        krein_resolvent(problem, 2.0j)  # the control: one point, its maps once
        assert ev.built == 1

    @pytest.mark.parametrize("zs, error, named", [
        ([2.0j, 1.0, 3.0j], OutsideResolventSet, r"z=\(1\+0j\)"),  # an eigenvalue of a
        ([2.0j, complex("inf")], OutsideResolventSet, r"z=\(inf\+0j\)"),
        ([2.0j, 3.0j, 1.0 + np.sqrt(2.0)], SingularPencil, r"z=\(2\.414"),  # a pole
    ])
    def test_stack_names_its_bad_point_before_any_vector(self, two_level_model, zs, error, named):
        ev = Recording(two_level_model)
        problem = ExtensionProblem(ev, ThetaMatrix([[1.0]]))
        with pytest.raises(error, match=named):
            krein_resolvent(problem, np.array(zs, dtype=complex))
        assert ev.built == 0
        krein_resolvent(problem, np.array([2.0j, 3.0j]))
        assert ev.built == 1

    @pytest.mark.parametrize("z", [0.5 + 1.0j, np.array([2.0j, 0.5 - 1.0j, 3.0])])
    def test_one_admissibility_check_per_resolvent(self, two_level_problem, monkeypatch, z):
        from kreinx import krein, matrixmodel

        checks = []
        monkeypatch.setattr(matrixmodel, "_admit", lambda *a: checks.append(a) or krein._admit(*a))
        krein_resolvent(two_level_problem, z)(np.array([1.0, 2.0 - 1.0j]))
        assert len(checks) == 1

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 10))
    def test_stack_matches_each_point_and_the_oracle(self, seed, k):
        model, theta, zs = next(random_problem_suite(seed, 1))
        zs = zs[:k]
        problem = ExtensionProblem(MatrixEvaluator(model), theta)
        rng = np.random.default_rng(seed)
        fs = rng.standard_normal((k, model.n)) + 1j * rng.standard_normal((k, model.n))
        got = krein_resolvent(problem, zs)(fs)
        assert got.shape == (k, model.n)
        try:
            b = woodbury_extension(model, theta)
        except OracleDegenerate:
            b = None
        for z, f, row in zip(zs, fs, got):
            assert rel_err(row, krein_resolvent(problem, complex(z))(f)) <= 1e-13
            if b is not None:
                assert rel_err(row, np.linalg.solve(z * np.eye(model.n) - b, f)) <= 1e-9

    def test_one_vector_at_every_point_of_a_stack(self, two_level_problem):
        zs = np.array([2.0j, 0.5 - 1.0j, 3.0])
        f = np.array([1.0, 2.0 - 1.0j])
        got = krein_resolvent(two_level_problem, zs)(f)
        for z, row in zip(zs, got):
            assert rel_err(row, krein_apply(two_level_problem, complex(z), f)) <= 1e-14

    def test_one_point_is_the_eigenbasis_formula_bit_for_bit(self):
        # the stacked code keeps the one-point bits: a vector goes through
        # U diag(r) U^H as a matrix-vector product, and the pencil solve
        # takes it as one right-hand side
        rng = np.random.default_rng(11)
        model = random_model(rng, 12, 3)
        problem = ExtensionProblem(MatrixEvaluator(model), random_theta(rng, 3))
        z = 0.3 + 0.8j
        f = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        u, t = model.basis, model.traces
        r = 1.0 / (z - model.eigs)
        pencil = gamma_theta(problem, z)
        charges = np.linalg.solve(pencil, t @ (r * (u.conj().T @ f)))
        want = u @ (r * (u.conj().T @ f)) + u @ (r * (t.conj().T @ charges))
        assert np.array_equal(krein_apply(problem, z, f), want)

    def test_backend_without_actions_raises_before_it_returns(self):
        problem = ExtensionProblem(
            LaplacianPointEvaluator(PointSet(1, [0.0, 1.0])),
            ThetaMatrix([[0.5, 0.0], [0.0, 0.5]]),
        )
        with pytest.raises(UnsupportedAction):
            krein_resolvent(problem, 1.5 + 0.4j)


class TestEvaluationPoint:
    """``at(z)`` checks z once and holds gamma and the maps at z."""

    def test_matrix_gamma_is_the_free_function_bit_for_bit(self):
        model = random_model(5, 7, 3)
        ev = MatrixEvaluator(model)
        zs = np.array([0.3 + 1.2j, -2.0 - 0.5j, 4.0])
        assert np.array_equal(ev.at(zs).gamma, gamma(model, zs))
        for z in zs:
            assert np.array_equal(ev.at(complex(z)).gamma, gamma(model, complex(z)))

    def test_kernel_backends_gamma_bit_for_bit(self):
        for ps in (PointSet(1, [0.0, 0.7]), PointSet(3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])):
            for z in (1.5, 2.0 + 0.5j):
                assert np.array_equal(LaplacianPointEvaluator(ps).at(z).gamma, gamma_matrix(ps, z))
        sym, ps = Multiplier1D(poly=(0.0, 0.0, -1.0)), PointSet(1, [0.0, 0.7])
        point = MultiplierAnchoredEvaluator(sym, ps, 1.0).at(2.0)
        assert np.array_equal(point.gamma, anchored_gamma_1d(sym, ps, 2.0, 1.0))

    @pytest.mark.parametrize("z", [complex("inf"), complex("nan"), complex(0.5, float("inf"))])
    def test_non_finite_z_on_every_backend(self, two_level_model, z):
        ps = PointSet(1, [0.0, 0.7])
        backends = (
            MatrixEvaluator(two_level_model),
            LaplacianPointEvaluator(ps),
            LaplacianPointEvaluator(PointSet(2, [[0.0, 0.0]])),
            LaplacianGrid1DEvaluator(ps, -4.0, 4.0, 81),
            MultiplierAnchoredEvaluator(Multiplier1D(poly=(0.0, 0.0, -1.0)), ps, 1.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ev in backends:
                with pytest.raises(OutsideResolventSet, match="is outside the resolvent set"):
                    ev.at(z)

    def test_grid_kernel_is_built_by_actions_only(self, monkeypatch):
        from kreinx import greens

        built = []
        gz_array = greens._gz_array
        monkeypatch.setattr(greens, "_gz_array", lambda *a: built.append(1) or gz_array(*a))
        point = LaplacianGrid1DEvaluator(PointSet(1, [0.0]), -4.0, 4.0, 81).at(1.5)
        assert built == [1]  # the gamma_matrix row only
        point.actions()
        assert built == [1, 1]

    def test_at_is_the_only_per_z_method(self):
        backends = (MatrixEvaluator, LaplacianPointEvaluator, LaplacianGrid1DEvaluator,
                    MultiplierAnchoredEvaluator)
        public = {name for name in dir(GammaEvaluator) if not name.startswith("_")}
        assert public == {"n_charges", "at", "interval_in_resolvent_set"}
        for cls in backends:
            assert not {"in_resolvent_set", "gamma", "actions", "gbreve_g",
                        "stacks_points"} & set(dir(cls))

    def test_one_point_backends_reject_an_array(self):
        ps = PointSet(1, [0.0, 0.7])
        backends = (
            LaplacianPointEvaluator(ps),
            LaplacianPointEvaluator(PointSet(2, [[0.0, 0.0]])),
            LaplacianPointEvaluator(PointSet(3, [[0.0, 0.0, 0.0]])),
            LaplacianGrid1DEvaluator(ps, -4.0, 4.0, 81),
            MultiplierAnchoredEvaluator(Multiplier1D(poly=(0.0, 0.0, -1.0)), ps, 1.0),
        )
        for ev in backends:
            with pytest.raises(UnsupportedAction, match=f"^{type(ev).__name__} takes one point"):
                ev.at(np.array([1.0, 2.0]))

    def test_point_without_maps(self):
        point = LaplacianPointEvaluator(PointSet(1, [0.0])).at(1.5)
        with pytest.raises(UnsupportedAction):
            point.actions()


class TestGridBackendApply:
    def test_first_resolvent_identity_at_quadrature_tolerance(self):
        # the grid-native actions carry O(h^2) quadrature error, so the
        # perturbed family satisfies its resolvent identity to that order
        from kreinx import LaplacianGrid1DEvaluator, PointSet

        xs = np.linspace(-12.0, 12.0, 1201)
        ps = PointSet(1, [0.0])
        problem = ExtensionProblem(
            LaplacianGrid1DEvaluator(ps, -12.0, 12.0, 1201), ThetaMatrix([[0.5]])
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
            LaplacianGrid1DEvaluator(ps, -12.0, 12.0, 2401), ThetaMatrix([[theta]])
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
