import numpy as np
import pytest

from kreinx import (
    ExtensionProblem,
    MatrixEvaluator,
    ThetaMatrix,
    check_base_identities,
    check_extension,
    check_gamma_identities,
    krein_resolvent,
    run_verification,
    scan_spectrum,
    verify_eigenpair,
)
from kreinx.matrixmodel import (
    base_resolvent,
    product_matrix,
    random_model,
    random_problem_suite,
    random_theta,
)
from kreinx.verify import CheckResult, VerificationReport, merge_reports, rel_residual


def worst(report) -> float:
    return max(c.residual for c in report.checks)


class TestReportPlumbing:
    def test_pass_logic(self):
        good = CheckResult("a", 1e-13, 1e-11)
        bad = CheckResult("b", 1e-3, 1e-11)
        assert good.passed and not bad.passed
        assert not VerificationReport(checks=(good, bad)).passed
        assert VerificationReport(checks=(good,)).passed

    def test_merge_keeps_worst(self):
        r1 = VerificationReport(checks=(CheckResult("x", 1e-14, 1e-11),))
        r2 = VerificationReport(checks=(CheckResult("x", 1e-12, 1e-11),))
        merged = merge_reports([r1, r2])
        assert merged.checks[0].residual == 1e-12

    def test_rel_residual_scale_free(self):
        a = np.array([[1e8, 0.0], [0.0, 1e8]])
        assert rel_residual(a, a * (1.0 + 1e-12)) == pytest.approx(1e-12, rel=1e-3)

    def test_stack_residual_is_the_worst_pair(self):
        from kreinx.verify import _entry_max, _worst_residual

        a = np.array([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]])
        b = a.copy()
        b[1, 0, 0] = 2.5
        assert _worst_residual(a, b, _entry_max) == rel_residual(a[1], b[1]) == 0.2
        assert _worst_residual(a[:0], b[:0], _entry_max) == 0.0


class TestBaseIdentities:
    def test_worked_example_pair(self, two_level_model):
        report = check_base_identities(two_level_model, [2.0, 3.0j])
        assert report.passed and worst(report) <= 1e-14

    def test_repeated_points_change_nothing(self, two_level_model):
        # equal pairs are skipped, so a repeated point only repeats pairs
        once = check_base_identities(two_level_model, [2.0, 3.0j, 0.5 - 1.0j])
        twice = check_base_identities(two_level_model, [2.0, 3.0j, 2.0, 0.5 - 1.0j, 3.0j])
        assert once.rows() == twice.rows()

    def test_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            model = random_model(rng, int(rng.integers(2, 10)), 2)
            zs = rng.uniform(-5, 5, 4) + 1j * rng.uniform(0.2, 3.0, 4)
            assert check_base_identities(model, zs).passed


class TestGammaIdentities:
    def test_matrix_closed_form_conjugation(self, two_level_model):
        report = check_gamma_identities(two_level_model, [1.0 + 2.0j, 0.5 - 0.3j])
        assert report.passed and worst(report) <= 1e-13
        assert [c.name for c in report.checks] == ["gamma/conjugate_symmetry", "gamma/difference"]

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_stack_matches_each_point(self, seed):
        # the residuals of one gamma per point and one product matrix per pair
        from kreinx.verify import TOL_MATRIX, _entry_max, _pairs, _worst_residual

        for model, _, zs in random_problem_suite(seed, 6):
            zs = zs[:5]
            ev = MatrixEvaluator(model)
            gammas = np.array([ev.at(z).gamma for z in zs])
            conj = np.array([ev.at(np.conj(z)).gamma for z in zs])
            z, w = _pairs(zs, ordered=False)
            prods = np.array([product_matrix(model, zs[j], zs[i]) for i, j in zip(z, w)])
            dz = (zs[z] - zs[w])[:, None, None]
            want = [
                ("gamma/conjugate_symmetry",
                 _worst_residual(conj, gammas.conj().swapaxes(-2, -1), _entry_max)),
                ("gamma/difference",
                 _worst_residual(gammas[z] - gammas[w], dz * prods, _entry_max)),
            ]
            report = check_gamma_identities(model, zs)
            assert [(c.name, c.residual) for c in report.checks] == want
            assert all(c.tolerance == TOL_MATRIX for c in report.checks)

    def test_kernel_identities_are_fixed_checks(self):
        # the Laplacian difference and conjugation identities in dims 1
        # and 3 are checked at fixed points, against quadrature
        from kreinx.verify import TOL_QUAD, _convolution_checks

        report = _convolution_checks()
        assert report.passed
        tolerances = {c.name: c.tolerance for c in report.checks}
        for dim in (1, 3):
            assert tolerances[f"kernel{dim}d/difference"] == TOL_QUAD
            assert f"kernel{dim}d/conjugate_symmetry" in tolerances


class TestExtensionChecks:
    def test_worked_example(self, two_level_model):
        report = check_extension(two_level_model, ThetaMatrix([[1.0]]), [2.0j, 0.5 + 1.0j])
        assert report.passed and worst(report) <= 1e-12
        names = {c.name for c in report.checks}
        assert "extension/oracle_agreement" in names
        assert "extension/kernel_action" in names

    def test_degenerate_anchor_skips_oracle_checks(self, two_level_model):
        report = check_extension(two_level_model, ThetaMatrix([[0.0]]), [2.0j])
        names = {c.name for c in report.checks}
        assert not {"extension/oracle_agreement", "extension/kernel_action"} & names
        assert "extension/first_resolvent_identity" in names
        assert report.passed

    def test_one_stack_of_distinct_points(self, two_level_model, monkeypatch):
        # a real z is its own conjugate, and a repeated z is one point
        import kreinx.verify as verify

        stacks = []

        def recording(problem, z):
            stacks.append(z)
            return krein_resolvent(problem, z)

        monkeypatch.setattr(verify, "krein_resolvent", recording)
        report = check_extension(
            two_level_model, ThetaMatrix([[1.0]]), [2.0, 0.5 + 1.0j, 2.0, 0.5 + 1.0j]
        )
        assert report.passed and worst(report) <= 1e-12, report.rows()
        assert len(stacks) == 1
        assert stacks[0].tolist() == [2.0, 0.5 + 1.0j, 0.5 - 1.0j]

    def test_each_pencil_is_solved_once_per_apply(self, monkeypatch):
        # the drawn vectors are the columns of one right-hand side per
        # pencil; broadcasting the pencils over them would factor each
        # pencil once per vector
        model, theta = random_model(3, 6, 2), random_theta(4, 2)
        zs = [1.0 + 2.0j, -0.5 + 1.0j, 3.0 - 0.7j]
        shapes = []
        solve = np.linalg.solve

        def recording(a, b):
            if np.ndim(a) == 3 and np.shape(a)[-1] == model.n_charges:
                shapes.append((np.shape(a), np.shape(b)))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        assert check_extension(model, theta, zs).passed
        # 6 points (each z and its conjugate); f, g and the oracle's vector
        # at each z, then R(w) f at each of the 3 pairs
        assert shapes == [((6, 2, 2), (6, 2, 9)), ((6, 2, 2), (6, 2, 3))]

    def test_equal_points_make_no_pair(self, two_level_model):
        from kreinx.verify import _pairs

        zs = np.array([2.0j, 1.0 + 1.0j, 2.0j])
        assert [p.tolist() for p in _pairs(zs, ordered=False)] == [[1, 2], [0, 1]]
        assert [p.tolist() for p in _pairs(zs, ordered=True)] == [[0, 1, 1, 2], [1, 0, 2, 1]]
        # no pair at all: the chained resolvent gets an empty stack
        report = check_extension(two_level_model, ThetaMatrix([[1.0]]), [2.0j, 2.0j])
        first = {c.name: c.residual for c in report.checks}["extension/first_resolvent_identity"]
        assert first == 0.0
        assert report.passed

    def test_many_seeded_models(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = random_model(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
            theta = random_theta(rng, model.n_charges)
            zs = rng.uniform(-4, 4, 3) + 1j * rng.uniform(0.3, 2.0, 3)
            report = check_extension(model, theta, zs, rng=rng)
            assert report.passed, report.rows()


class TestRunVerification:
    def test_passes_and_is_deterministic(self):
        r1 = run_verification(seed=42, models=6)
        r2 = run_verification(seed=42, models=6)
        assert r1.passed
        assert r1.rows() == r2.rows()
        assert r1.model_summary == r2.model_summary == "models=6"

    def test_seed_changes_residuals(self):
        r1 = run_verification(seed=1, models=3)
        r2 = run_verification(seed=2, models=3)
        assert r1.rows() != r2.rows()

    def test_checks_sorted_by_name(self):
        report = run_verification(seed=9, models=3)
        names = [row[0] for row in report.rows()]
        assert names == sorted(names)


class TestDegenerateOracle:
    """theta = -tau R(0) tau^H makes the anchor pencil singular, so the
    directly built matrix does not exist and its checks are skipped."""

    @staticmethod
    def _model_and_theta():
        model = random_model(3, 6, 2)
        m = model.tau @ base_resolvent(model, 0.0) @ model.tau.conj().T
        return model, ThetaMatrix(-(m + m.conj().T) / 2.0)

    def test_eigenpair_checks_the_pencil_only(self):
        model, theta = self._model_and_theta()
        problem = ExtensionProblem(MatrixEvaluator(model), theta)
        rep = scan_spectrum(problem, (-3.7, -2.3))
        assert [r.multiplicity for r in rep.roots] == [1]
        report = verify_eigenpair(problem, rep.roots[0].z0, rep.roots[0].charge)
        assert [c.name for c in report.checks] == ["eigenpair/pencil_kernel"]
        assert report.passed

    def test_run_counts_the_skipped_model(self, monkeypatch):
        import kreinx.verify as verify

        model, theta = self._model_and_theta()
        zs = [1.0 + 2.0j, -0.5 + 1.0j, 3.0 - 0.7j]
        monkeypatch.setattr(verify, "random_problem_suite", lambda seed, count: [(model, theta, zs)])
        report = run_verification(seed=0, models=1)
        assert report.model_summary == "models=1 oracle_degenerate_skipped=1"
        names = {c.name for c in report.checks}
        assert "extension/oracle_agreement" not in names
        assert "extension/first_resolvent_identity" in names
        assert report.passed
