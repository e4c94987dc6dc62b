import ast
import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinx import (
    ExtensionProblem,
    InvariantError,
    MatrixEvaluator,
    MatrixModel,
    OracleDegenerate,
    OutsideResolventSet,
    SpectrumHit,
    ThetaMatrix,
    base_resolvent,
    direct_eigs,
    g_maps,
    gamma,
    krein_apply,
    scan_spectrum,
    woodbury_extension,
)
from kreinx.matrixmodel import anchor_pencil, product_matrix, random_model, random_theta

from conftest import rel_err

SQRT2 = np.sqrt(2.0)


class TestConstruction:
    def test_rejects_noninjective(self):
        with pytest.raises(InvariantError):
            MatrixModel(np.diag([0.0, 1.0]), [[1.0, 0.0]])

    def test_rejects_nonhermitian(self):
        with pytest.raises(InvariantError):
            MatrixModel([[0.0, 1.0], [0.0, 1.0]], [[1.0, 0.0]])

    def test_rejects_rank_deficient_tau(self):
        with pytest.raises(InvariantError):
            MatrixModel(np.diag([1.0, -1.0]), [[1.0, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(InvariantError, match="base matrix entries must be finite"):
            MatrixModel([[1.0, 0.0], [0.0, bad]], [[1.0, 0.0]])
        with pytest.raises(InvariantError, match="trace matrix entries must be finite"):
            MatrixModel(np.diag([1.0, -1.0]), [[1.0, bad]])

    @pytest.mark.parametrize("a, tau, violation", [
        ([[1.0, 0.0]], [[1.0]], "base matrix must be square, got (1, 2)"),
        (np.diag([1.0, -1.0]), [[1.0, 0.0, 0.0]], "trace matrix has 3 columns, base matrix is 2x2"),
        (np.diag([1.0, -1.0]), [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
         "trace matrix cannot have more rows than columns"),
    ], ids=["a-not-square", "tau-columns", "tau-more-rows"])
    def test_rejects_a_shape_mismatch(self, a, tau, violation):
        with pytest.raises(InvariantError) as err:
            MatrixModel(a, tau)
        assert err.value.violations == (violation,)

    def test_trace_bound_constant(self, two_level_model):
        # |tau a^{-1}|_2 = |(1, -1)|_2 = sqrt(2)
        assert two_level_model.trace_bound_constant == pytest.approx(SQRT2)


class TestBaseResolvent:
    def test_diagonal_values(self, two_level_model):
        assert np.allclose(base_resolvent(two_level_model, 0.0), np.diag([-1.0, 1.0]))
        assert np.allclose(base_resolvent(two_level_model, 2.0), np.diag([1.0, 1.0 / 3.0]))

    def test_spectrum_hit(self, two_level_model):
        with pytest.raises(SpectrumHit):
            base_resolvent(two_level_model, 1.0)

    @pytest.mark.parametrize("seed", [3, 8, 40])
    def test_evaluator_resolvent_action_is_the_dense_inverse(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 10, 2)
        ev = MatrixEvaluator(model)
        for z in (0.2 + 0.3j, -4.0 - 1.5j, 9.0 + 0.1j):
            f = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            r, _, _ = ev.at(z).actions()
            assert rel_err(r(f), base_resolvent(model, z) @ f) <= 1e-12
        with pytest.raises(OutsideResolventSet):
            ev.at(model.eigs[0])


class TestGMaps:
    def test_at_zero(self, two_level_model):
        maps = g_maps(two_level_model, 0.0)
        assert np.allclose(maps.g.ravel(), [-1.0, 1.0])
        assert np.all(maps.k == 0)

    def test_at_two(self, two_level_model):
        maps = g_maps(two_level_model, 2.0)
        assert np.allclose(maps.g.ravel(), [1.0, 1.0 / 3.0])
        # k equals the anchored difference of the image maps
        assert np.allclose(maps.k, g_maps(two_level_model, 0.0).g - maps.g, atol=1e-15)

    def test_resolvent_difference_identity(self, two_level_model):
        z, w = 2.0, 3.0j
        gz = g_maps(two_level_model, z).g
        gw = g_maps(two_level_model, w).g
        lhs = (z - w) * base_resolvent(two_level_model, w) @ gz
        assert rel_err(lhs, gw - gz) <= 1e-14


class TestGamma:
    def test_closed_form(self, two_level_model):
        # partial fractions: gamma(z) = -2z/(z^2 - 1)
        assert gamma(two_level_model, 2.0)[0, 0] == pytest.approx(-4.0 / 3.0)
        for z in (0.5, 3.0, 1.7j, 2.0 + 1.0j):
            want = -2.0 * z / (z * z - 1.0)
            assert abs(gamma(two_level_model, z)[0, 0] - want) < 1e-13

    def test_vanishes_at_anchor(self, two_level_model):
        assert np.all(gamma(two_level_model, 0.0) == 0)

    def test_conjugate_symmetry(self, two_level_model):
        z = 1.0 + 2.0j
        lhs = gamma(two_level_model, np.conj(z))
        rhs = gamma(two_level_model, z).conj().T
        assert rel_err(lhs, rhs) <= 1e-14


class TestWoodburyExtension:
    def test_worked_example_matrix(self, two_level_model):
        b = woodbury_extension(two_level_model, ThetaMatrix([[1.0]]))
        assert np.allclose(b, [[2.0, 1.0], [1.0, 0.0]], rtol=0, atol=1e-15)

    def test_worked_example_eigenvalues(self, two_level_model):
        eigs = direct_eigs(two_level_model, ThetaMatrix([[1.0]]))
        assert np.allclose(eigs, [1.0 - SQRT2, 1.0 + SQRT2], rtol=0, atol=1e-12)

    def test_weak_coupling_limit(self, two_level_model):
        # |tau|^2 / 1e6 bounds the rank-one correction
        b = woodbury_extension(two_level_model, ThetaMatrix([[1e6]]))
        assert np.linalg.norm(b - two_level_model.a, ord=2) <= 2.1e-6
        eigs = direct_eigs(two_level_model, ThetaMatrix([[1e6]]))
        assert np.allclose(eigs, [-1.0, 1.0], atol=1e-5)

    def test_degenerate_anchor(self, two_level_model):
        # tau R(0) tau^H = 0 here, so theta = 0 makes the anchor singular
        with pytest.raises(OracleDegenerate):
            woodbury_extension(two_level_model, ThetaMatrix([[0.0]]))

    def test_kernel_of_trace_is_untouched(self, two_level_model):
        b = woodbury_extension(two_level_model, ThetaMatrix([[1.0]]))
        phi0 = np.array([1.0, -1.0]) / SQRT2
        assert np.array_equal(b.real @ phi0, two_level_model.a.real @ phi0)

    def test_decoupled_scalar_formula(self):
        # n = N, tau = I, everything diagonal: b_ii = a_i + 1/(theta_i - 1/a_i)
        model = MatrixModel(np.diag([2.0, -3.0]), np.eye(2))
        theta = ThetaMatrix(np.diag([1.0, 5.0]))
        eigs = direct_eigs(model, theta)
        want = sorted(
            [2.0 + 1.0 / (1.0 - 1.0 / 2.0), -3.0 + 1.0 / (5.0 + 1.0 / 3.0)]
        )
        assert np.allclose(eigs, want, rtol=0, atol=1e-14)
        assert eigs[1] == pytest.approx(4.0)
        assert eigs[0] == pytest.approx(-2.8125)


class TestRandomModels:
    def test_seeded_reproducibility(self):
        m1 = random_model(123, 8, 3)
        m2 = random_model(123, 8, 3)
        assert np.array_equal(m1.a, m2.a)
        assert np.array_equal(m1.tau, m2.tau)

    @pytest.mark.parametrize("n, n_charges", [(2, 3), (3, 0)])
    def test_charge_count_outside_1_to_n(self, n, n_charges):
        with pytest.raises(InvariantError) as err:
            random_model(1, n, n_charges)
        assert err.value.violations == ("need 1 <= n_charges <= n",)

    def test_singular_anchor_pencil_redraws_theta(self, monkeypatch):
        import kreinx.matrixmodel as matrixmodel

        (model, plain, _), = matrixmodel.random_problem_suite(3, 1)
        seen = []

        def singular_once(drawn, theta):
            seen.append(theta)
            m = anchor_pencil(drawn, theta)
            return np.zeros_like(m) if len(seen) == 1 else m

        monkeypatch.setattr(matrixmodel, "anchor_pencil", singular_once)
        (redrawn_model, theta, _), = matrixmodel.random_problem_suite(3, 1)
        assert np.array_equal(redrawn_model.a, model.a)
        assert len(seen) == 2 and seen[1] is theta
        assert np.array_equal(seen[0].entries, plain.entries)
        assert not np.array_equal(theta.entries, plain.entries)

    def test_spectrum_magnitudes(self):
        model = random_model(7, 12, 4)
        assert np.all(np.abs(model.eigs) >= 0.1 - 1e-9)
        assert np.all(np.abs(model.eigs) <= 10.0 + 1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_displayed_identities_on_random_models(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        nc = int(rng.integers(1, min(4, n) + 1))
        model = random_model(rng, n, nc)
        zs = [0.5 + 1.1j, -2.0 + 0.4j, 3.3 - 2.0j]
        maps = {z: g_maps(model, z) for z in zs}
        for z in zs:
            # the anchored action identity: -a k(z) = z g(z)
            assert rel_err(-model.a @ maps[z].k, z * maps[z].g) <= 1e-11
            # conjugate symmetry of gamma
            assert rel_err(gamma(model, np.conj(z)), gamma(model, z).conj().T) <= 1e-11
            for w in zs:
                if w == z:
                    continue
                lhs = (z - w) * base_resolvent(model, w) @ maps[z].g
                assert rel_err(lhs, maps[w].g - maps[z].g) <= 1e-11
                assert rel_err(maps[w].k - maps[z].k, maps[z].g - maps[w].g) <= 1e-11
                lhs6 = gamma(model, z) - gamma(model, w)
                rhs6 = (z - w) * (model.tau @ base_resolvent(model, w)) @ maps[z].g
                assert rel_err(lhs6, rhs6) <= 1e-11

    def test_oracle_spectrum_vs_pencil_roots(self):
        # eigenvalues of the built matrix inside the base resolvent set are
        # pencil roots, found independently by the scanner
        from kreinx import ExtensionProblem, MatrixEvaluator, scan_spectrum

        rng = np.random.default_rng(11)
        model = random_model(rng, 6, 2)
        theta = random_theta(rng, 2)
        assert np.linalg.svd(anchor_pencil(model, theta), compute_uv=False)[-1] > 1e-8
        problem = ExtensionProblem(MatrixEvaluator(model), theta)
        checked = 0
        for lam in direct_eigs(model, theta):
            if model.spectrum_distance(lam) < 0.05:
                continue
            rep = scan_spectrum(problem, (lam - 0.04, lam + 0.04))
            assert len(rep.roots) >= 1
            assert min(abs(rep.positions() - lam)) <= 1e-8
            checked += 1
        assert checked >= 1


def _dense_resolvent(model, z):
    # the slow path: a dense inverse built here, sharing no code with the
    # eigenbasis form in matrixmodel
    return np.linalg.inv(complex(z) * np.eye(model.n) - model.a)


def _complex_vector(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


class TestEigenbasisAgainstDenseInverse:
    """Every map and action of the pencil route against ``inv(z I - a)``."""

    @pytest.mark.parametrize("seed", [1, 5, 13, 21, 34])
    def test_maps_and_actions(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        nc = int(rng.integers(1, min(4, n) + 1))
        model = random_model(rng, n, nc)
        ev = MatrixEvaluator(model)
        f = _complex_vector(rng, n)
        ell = _complex_vector(rng, nc)
        tau, tau_h = model.tau, model.tau.conj().T
        lam = np.linalg.eigvalsh(model.a)
        # Both routes carry the problem's own rounding, about
        # eps |a| / dist(z, spectrum) relative (|a| <= 10), so gap
        # midpoints closer than 0.01 to the spectrum cannot meet 1e-12.
        mids = [x for x in (lam[:-1] + lam[1:]) / 2.0 if np.min(np.abs(lam - x)) >= 0.01]
        assert mids
        zs = mids + [lam[0] - 0.5, lam[-1] + 0.5, 0.3 + 1.2j, -2.0 - 0.5j, 7.5 + 0.01j]
        w = 1.1 + 0.7j
        r0 = _dense_resolvent(model, 0.0)
        rw = _dense_resolvent(model, w)
        for z in zs:
            rz = _dense_resolvent(model, z)
            maps = g_maps(model, z)
            r, gbreve, g = ev.at(z).actions()
            pairs = [
                (gamma(model, z), tau @ (r0 - rz) @ tau_h),
                (maps.g, rz @ tau_h),
                (maps.k, z * r0 @ rz @ tau_h),
                (product_matrix(model, w, z), tau @ rw @ rz @ tau_h),
                (product_matrix(model, z, z), tau @ rz @ rz @ tau_h),
                (r(f), rz @ f),
                (gbreve(f), tau @ rz @ f),
                (g(ell), rz @ tau_h @ ell),
            ]
            for got, want in pairs:
                assert rel_err(got, want) <= 1e-12

    def test_gamma_hermitian_at_real_z_in_every_gap(self):
        # random_model(13, 6, 1) has the gap (5.11909, 5.12406) where the
        # difference of two dense inverses left a defect of 3.2e-10
        models = [random_model(13, 6, 1)]
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            models.append(random_model(rng, n, int(rng.integers(1, min(4, n) + 1))))
        fractions = np.array([1e-3, 0.25, 0.5, 0.75, 1.0 - 1e-3])
        for model in models:
            lam = np.linalg.eigvalsh(model.a)
            zs = [lam[0] - 1.0, lam[-1] + 1.0]
            for lo, hi in zip(lam[:-1], lam[1:]):
                zs.extend(lo + (hi - lo) * fractions)
            for z in zs:
                g = gamma(model, z)
                defect = np.max(np.abs(g - g.conj().T))
                assert defect <= 1e-14 * (1.0 + np.max(np.abs(g)))

    def test_found_window_scans_without_not_hermitian(self):
        model = random_model(13, 6, 1)
        problem = ExtensionProblem(MatrixEvaluator(model), random_theta(14, 1))
        # Raised NotHermitian before.  The root inside is pinned by
        # test_spectral.py::TestScanSpectrum::test_steep_root_above_tol_root_reported.
        scan_spectrum(problem, (5.119143372626481, 5.124013191433564))


def _real_data(rng, n, nc):
    # a real symmetric injective matrix and real trace rows, drawn here so
    # that the dense reference below starts from the raw input
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectrum = rng.uniform(0.1, 10.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    a = (q * spectrum) @ q.T
    return (a + a.T) / 2.0, rng.standard_normal((nc, n))


class TestRealModel:
    """Real data stay real: the eigenbasis is real and every map still
    agrees with a dense complex inverse."""

    def test_real_data_give_real_arrays(self):
        a, tau = _real_data(np.random.default_rng(3), 7, 2)
        for model in (MatrixModel(a, tau), MatrixModel(a.astype(complex), tau + 0j)):
            for arr in (model.a, model.tau, model.eigs, model.basis, model.traces):
                assert arr.dtype == np.float64

    def test_every_real_input_form_gives_the_same_bits(self):
        # config rows arrive as tuples of floats; numpy infers float64 from
        # them, and a complex input with zero imaginary parts reads alike
        a, tau = _real_data(np.random.default_rng(5), 6, 2)
        want = MatrixModel(a, tau)
        theta = np.array([[0.5, -0.25], [-0.25, 2.0]])
        forms = [
            tuple(tuple(map(tuple, m.tolist())) for m in (a, tau, theta)),
            (a + 0j, tau + 0j, theta + 0j),
        ]
        for a_in, tau_in, theta_in in forms:
            model = MatrixModel(a_in, tau_in)
            for got, ref in zip(
                (model.a, model.tau, model.eigs, model.basis, model.traces),
                (want.a, want.tau, want.eigs, want.basis, want.traces),
            ):
                assert got.dtype == np.float64 and got.tobytes() == ref.tobytes()
            entries = ThetaMatrix(theta_in).entries
            assert entries.dtype == np.float64 and entries.tobytes() == theta.tobytes()

    def test_inputs_are_copied_not_frozen(self):
        a, tau = _real_data(np.random.default_rng(6), 4, 1)
        theta = np.eye(1)
        model, coupling = MatrixModel(a, tau), ThetaMatrix(theta)
        assert a.flags.writeable and tau.flags.writeable and theta.flags.writeable
        a[0, 0] = tau[0, 0] = theta[0, 0] = 99.0
        assert model.a[0, 0] != 99.0 and model.tau[0, 0] != 99.0 and coupling.entries[0, 0] == 1.0

    @pytest.mark.parametrize("seed", [2, 7, 11, 19])
    def test_maps_and_actions_against_complex_dense_inverse(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        nc = int(rng.integers(1, min(4, n) + 1))
        a, tau = _real_data(rng, n, nc)
        model = MatrixModel(a, tau)
        ev = MatrixEvaluator(model)
        a_c, tau_c = a.astype(complex), tau.astype(complex)
        tau_h = tau_c.conj().T

        def dense(z):
            return np.linalg.inv(complex(z) * np.eye(n) - a_c)

        f = _complex_vector(rng, n)
        ell = _complex_vector(rng, nc)
        lam = np.linalg.eigvalsh(a)
        mids = [x for x in (lam[:-1] + lam[1:]) / 2.0 if np.min(np.abs(lam - x)) >= 0.01]
        assert mids
        zs = mids + [0.3 + 1.2j, -2.0 - 0.5j, 7.5 + 0.01j]
        w = 1.1 + 0.7j
        r0, rw = dense(0.0), dense(w)
        for z in zs:
            rz = dense(z)
            maps = g_maps(model, z)
            r, gbreve, g = ev.at(z).actions()
            pairs = [
                (gamma(model, z), tau_c @ (r0 - rz) @ tau_h),
                (maps.g, rz @ tau_h),
                (maps.k, z * r0 @ rz @ tau_h),
                (product_matrix(model, w, z), tau_c @ rw @ rz @ tau_h),
                (product_matrix(model, z, z), tau_c @ rz @ rz @ tau_h),
                (r(f), rz @ f),
                (gbreve(f), tau_c @ rz @ f),
                (g(ell), rz @ tau_h @ ell),
            ]
            for got, want in pairs:
                assert rel_err(got, want) <= 1e-12

    def test_one_imaginary_entry_keeps_the_complex_route(self):
        a, tau = _real_data(np.random.default_rng(4), 6, 2)
        a = a.astype(complex)
        a[1, 3] += 1e-3j
        a[3, 1] -= 1e-3j
        model = MatrixModel(a, tau)
        assert model.a.dtype == model.basis.dtype == model.traces.dtype == np.complex128
        assert model.tau.dtype == np.float64
        assert np.max(np.abs(model.a.imag)) == 1e-3
        tau = tau.astype(complex)
        tau[0, 0] += 1e-3j
        mixed = MatrixModel(a.real, tau)
        assert mixed.basis.dtype == np.float64
        assert mixed.tau.dtype == mixed.traces.dtype == np.complex128

    @pytest.mark.parametrize("seed", [5, 6, 8])
    def test_krein_apply_matches_woodbury_solve(self, seed):
        rng = np.random.default_rng(seed)
        a, tau = _real_data(rng, 12, 3)
        model = MatrixModel(a, tau)
        m = rng.standard_normal((3, 3))
        theta = ThetaMatrix((m + m.T) / 2.0)
        problem = ExtensionProblem(MatrixEvaluator(model), theta)
        b = woodbury_extension(model, theta)
        f = _complex_vector(rng, 12)
        for z in (0.7 + 0.9j, -3.1 - 0.2j):
            want = np.linalg.solve(z * np.eye(12) - b, f)
            assert rel_err(krein_apply(problem, z, f), want) <= 1e-9


class TestPointStacks:
    """A 1-d array of k points gives the k per-point results as a stack."""

    @pytest.mark.parametrize("seed", [2, 7, 19])
    def test_stack_matches_each_point(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 8, 3)
        ev = MatrixEvaluator(model)
        zs = np.array([0.3 + 1.2j, -2.0 - 0.5j, 7.5 + 0.01j, 0.3 - 1.2j])
        fs = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        ells = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        maps = g_maps(model, zs)
        stacked = (gamma(model, zs), maps.g, maps.k, base_resolvent(model, zs))
        assert [m.shape for m in stacked] == [(4, 3, 3), (4, 8, 3), (4, 8, 3), (4, 8, 8)]
        r, gbreve, g = ev.at(zs).actions()
        for i, z in enumerate(zs):
            one = g_maps(model, z)
            each = (gamma(model, z), one.g, one.k, base_resolvent(model, z))
            for got, want in zip(stacked, each):
                assert rel_err(got[i], want) <= 1e-13
            r1, gbreve1, g1 = ev.at(z).actions()
            assert rel_err(r(fs)[i], r1(fs[i])) <= 1e-13
            assert rel_err(gbreve(fs)[i], gbreve1(fs[i])) <= 1e-13
            assert rel_err(g(ells)[i], g1(ells[i])) <= 1e-13

    def test_spectrum_hit_names_the_point(self, two_level_model):
        # the oracle's own check raises SpectrumHit; the pencil route's one
        # check raises OutsideResolventSet, from the free functions as from at
        zs = np.array([2.0j, -1.0, 3.0])
        with pytest.raises(SpectrumHit, match=r"z=\(-1\+0j\)"):
            base_resolvent(two_level_model, zs)
        calls = (
            lambda zs: g_maps(two_level_model, zs),
            lambda zs: gamma(two_level_model, zs),
            lambda zs: product_matrix(two_level_model, 2.0j, zs),
            lambda zs: product_matrix(two_level_model, zs, 2.0j),
            MatrixEvaluator(two_level_model).at,
        )
        for call in calls:
            with pytest.raises(OutsideResolventSet, match=r"z=\(-1\+0j\) is outside"):
                call(zs)

    def test_strided_blocks_give_the_contiguous_bits(self):
        # the maps make a block contiguous themselves, so a strided block
        # (as the stacked resolvent hands them) multiplies on the BLAS path
        rng = np.random.default_rng(4)
        model = random_model(rng, 9, 3)
        zs = np.array([0.3 + 1.2j, -2.0 - 0.5j, 7.5 + 0.01j])
        r, gbreve, g = MatrixEvaluator(model).at(zs).actions()
        fs = _complex_vector(rng, (9, 3)).T
        ells = _complex_vector(rng, (3, 3)).T
        for apply, block in ((r, fs), (gbreve, fs), (g, ells)):
            assert not block.flags.c_contiguous
            assert np.array_equal(apply(block), apply(np.ascontiguousarray(block)))

    @pytest.mark.parametrize("z", [complex("inf"), complex("nan"), complex(0.5, float("inf"))])
    def test_free_functions_name_a_non_finite_point(self, two_level_model, z):
        calls = (
            (lambda zs: base_resolvent(two_level_model, zs), InvariantError, "is not finite"),
            (lambda zs: gamma(two_level_model, zs), OutsideResolventSet, "is outside"),
            (lambda zs: g_maps(two_level_model, zs), OutsideResolventSet, "is outside"),
            (lambda zs: product_matrix(two_level_model, 2.0j, zs), OutsideResolventSet, "is outside"),
            (lambda zs: product_matrix(two_level_model, zs, 2.0j), OutsideResolventSet, "is outside"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call, error, says in calls:
                for zs in (z, np.array([2.0j, z, complex("nan")])):
                    with pytest.raises(error, match=re.escape(f"z={z!r} {says}")):
                        call(zs)

    def test_point_names_its_first_bad_point(self, two_level_model):
        ev = MatrixEvaluator(two_level_model)
        for zs, named in (([2.0j, 1.0, 0.5, -1.0], r"z=\(1\+0j\)"), ([0.5, np.nan], r"z=\(nan\+0j\)")):
            with pytest.raises(OutsideResolventSet, match=named):
                ev.at(np.array(zs, dtype=complex))
        assert ev.at(np.array([2.0j, 0.5])).gamma.shape == (2, 1, 1)
        assert two_level_model.spectrum_distance(np.array([0.0, 3.0])).tolist() == [1.0, 2.0]


def test_oracle_shares_no_code_with_the_pencil_route():
    # the Woodbury oracle checks the pencil route, so it must not reach any
    # of its parts: neither the one check of z nor the maps built on it
    from kreinx import matrixmodel

    oracle = {"base_resolvent", "anchor_pencil", "woodbury_extension", "direct_eigs"}
    pencil = {"_weights", "_admit", "MatrixEvaluator", "gamma", "g_maps"}
    found = {}
    for node in ast.parse(inspect.getsource(matrixmodel)).body:
        if isinstance(node, ast.FunctionDef) and node.name in oracle:
            found[node.name] = {
                getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)
            }
    assert set(found) == oracle
    for name, names in found.items():
        assert not names & pencil, name
