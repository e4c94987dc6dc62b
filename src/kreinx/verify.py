"""Executable verification of the displayed operator identities.

Each check evaluates both sides of an identity and reports the max-entry
relative residual against a declared tolerance: exact linear algebra on
the matrix backend, quadrature-limited tolerances on the kernel
backends (declared per check, never silently loosened).  The seeded
run uses the fixed tolerances ``TOL_MATRIX`` (matrix identities),
``TOL_EXTENSION`` (perturbed-resolvent checks) and ``TOL_QUAD`` (kernel
quadrature checks); the matrix-backend checks take no tolerance
argument.  They take each model's points as one stack and reduce every
pair residual over it with one helper.  Reports are deterministic
functions of the seed, so serialized output is byte-stable.

A report is plain data: its checks, and for the seeded run one summary
(``models=M``, with ``oracle_degenerate_skipped=K`` when K > 0); its one
rendering is ``rows()``.  Where the directly built matrix does not
exist, a model's extension report has no oracle rows, and the seeded
run counts the models whose report lacks them.

``verify_eigenpair`` checks a computed pole and charge vector against
the pencil kernel condition and, on the matrix backend, against the
perturbed operator itself; it returns the same report type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .greens import (
    PointSet,
    gamma_matrix,
    gbreve_g_quadrature_1d,
    gbreve_g_radial_3d,
)
from .krein import ExtensionProblem, ThetaMatrix, _maxabs, krein_resolvent
from .matrixmodel import (
    MatrixEvaluator,
    MatrixModel,
    base_resolvent,
    g_maps,
    gamma,
    product_matrix,
    random_problem_suite,
    woodbury_extension,
)
from .errors import InvariantError, OracleDegenerate
from .multiplier import Multiplier1D, multiplier_gz_1d
from .greens import gz as laplacian_gz

TOL_MATRIX = 1e-11
TOL_EXTENSION = 1e-9
TOL_QUAD = 1e-6


@dataclass(frozen=True)
class CheckResult:
    """One verified identity: max residual vs declared tolerance."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    model_summary: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self):
        """CSV rows (check, residual, tolerance, pass) in name order."""
        return [
            (c.name, c.residual, c.tolerance, int(c.passed))
            for c in sorted(self.checks, key=lambda c: c.name)
        ]


def merge_reports(reports, model_summary="") -> VerificationReport:
    """Aggregate by check name, keeping the worst residual per name."""
    worst: dict[str, CheckResult] = {}
    for rep in reports:
        for c in rep.checks:
            old = worst.get(c.name)
            if old is None or c.residual > old.residual:
                worst[c.name] = c
    return VerificationReport(
        checks=tuple(worst[k] for k in sorted(worst)), model_summary=model_summary
    )


def _worst_residual(lhs, rhs, norm) -> float:
    """Worst relative residual ``norm(l - r) / max(norm(l), norm(r))`` over
    a stack of pairs (0 for an empty stack): ``norm`` reduces the entries
    of each pair and keeps the stack axes."""
    lhs = np.asarray(lhs, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    scale = np.maximum(np.maximum(norm(lhs), norm(rhs)), 1e-300)
    return float(np.max(norm(lhs - rhs) / scale, initial=0.0))


def _entry_max(m) -> np.ndarray:
    """Max-entry norm of each matrix of a stack."""
    return np.max(np.abs(m), axis=(-2, -1))


_vector_norm = partial(np.linalg.norm, axis=-1)


def rel_residual(lhs, rhs) -> float:
    """Max-entry norm of the difference, relative to the larger side."""
    return _worst_residual(lhs, rhs, _maxabs)


def _inner(a, b) -> np.ndarray:
    """``np.vdot`` of each pair of rows of a and b."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def _pairs(zs: np.ndarray, ordered: bool):
    """Index arrays ``(i, j)`` of the pairs of unequal points, all ordered
    pairs or only those with j < i."""
    unequal = zs[:, None] != zs[None, :]
    return np.nonzero(unequal if ordered else np.tril(unequal, -1))


def check_base_identities(model: MatrixModel, z_list) -> VerificationReport:
    """Resolvent-difference, anchored-difference, and anchored-action
    identities of the derived maps, over all pairs of unequal points from
    ``z_list``; the maps and dense resolvents are evaluated for the whole
    list at once."""
    zs = np.array([complex(z) for z in z_list], dtype=complex)
    maps = g_maps(model, zs)
    g, k, resolvents = maps.g, maps.k, base_resolvent(model, zs)
    z, w = _pairs(zs, ordered=True)
    dz = (zs[z] - zs[w])[:, None, None]
    r_diff = _worst_residual((dz * resolvents[w]) @ g[z], g[w] - g[z], _entry_max)
    k_diff = _worst_residual(k[w] - k[z], g[z] - g[w], _entry_max)
    k_act = _worst_residual(-model.a @ k, zs[:, None, None] * g, _entry_max)
    return VerificationReport(
        checks=(
            CheckResult("base/resolvent_difference", r_diff, TOL_MATRIX),
            CheckResult("base/anchored_difference", k_diff, TOL_MATRIX),
            CheckResult("base/anchored_action", k_act, TOL_MATRIX),
        )
    )


def check_gamma_identities(model: MatrixModel, z_list) -> VerificationReport:
    """Conjugate symmetry of the trace matrix, and its difference identity
    against the product matrix over all pairs of unequal points from
    ``z_list``; each side is evaluated for the whole list at once."""
    zs = np.array([complex(z) for z in z_list], dtype=complex)
    gammas = gamma(model, zs)
    conj_res = _worst_residual(
        gamma(model, zs.conj()), gammas.conj().swapaxes(-2, -1), _entry_max
    )
    z, w = _pairs(zs, ordered=False)
    prods = product_matrix(model, zs[w], zs[z])
    dz = (zs[z] - zs[w])[:, None, None]
    diff_res = _worst_residual(gammas[z] - gammas[w], dz * prods, _entry_max)
    return VerificationReport(
        checks=(
            CheckResult("gamma/conjugate_symmetry", conj_res, TOL_MATRIX),
            CheckResult("gamma/difference", diff_res, TOL_MATRIX),
        )
    )


def check_extension(
    model: MatrixModel,
    theta: ThetaMatrix,
    z_list,
    *,
    rng: Optional[np.random.Generator] = None,
) -> VerificationReport:
    """Perturbed-resolvent checks on the matrix backend.

    (i) resolvent-formula vs directly-built-matrix agreement on random
    vectors, (ii) exact action of the built matrix on the first two
    basis vectors of the kernel of the trace map, (iii) the first
    resolvent identity of the perturbed family, (iv) adjoint symmetry.
    When the additive form does not exist, (i) and (ii) are skipped and
    the report has no rows for them.  The pencil side is one stacked
    resolvent over the distinct points (each z and its conjugate), applied
    to every drawn vector at every point in one solve; the oracle solves
    its own stack.
    """
    rng = rng or np.random.default_rng(0)
    problem = ExtensionProblem(MatrixEvaluator(model), theta)
    zs = np.array([complex(z) for z in z_list], dtype=complex)
    # a real z is its own conjugate
    points = list(dict.fromkeys(w for z in zs for w in (z, z.conjugate())))
    at_z = np.array([points.index(z) for z in zs], dtype=int)
    at_conj = np.array([points.index(z.conjugate()) for z in zs], dtype=int)
    resolvent = krein_resolvent(problem, np.array(points, dtype=complex))
    checks = []
    try:
        b = woodbury_extension(model, theta)
    except OracleDegenerate:
        b = None

    def draw(*shape):
        """Complex Gaussian vectors: the real, then the imaginary part of each."""
        x = rng.standard_normal(shape + (2, model.n))
        return x[..., 0, :] + 1j * x[..., 1, :]

    rows = np.arange(len(zs))
    oracle_fs = draw(len(zs)) if b is not None else None
    fs, gs = draw(len(zs), 2).swapaxes(0, 1)  # f then g for each z
    drawn = np.stack([fs, gs] if b is None else [fs, gs, oracle_fs])
    # images[s, v, p]: the resolvent at points[p] applied to drawn[s, v]
    images = resolvent(drawn[..., None, :])
    rz_f = images[0, rows, at_z]

    if b is not None:
        shifted = np.multiply.outer(zs, np.eye(model.n)) - b
        via_oracle = np.linalg.solve(shifted, oracle_fs[..., None])[..., 0]
        oracle_res = _worst_residual(images[2, rows, at_z], via_oracle, _vector_norm)
        checks.append(CheckResult("extension/oracle_agreement", oracle_res, TOL_EXTENSION))

        # exact action on the kernel of the trace map
        _, _, vh = np.linalg.svd(model.tau)
        kernel_basis = vh[model.n_charges:].conj().T
        ker_res = 0.0
        for phi0 in kernel_basis[:, :2].T:
            ker_res = max(ker_res, _maxabs(b @ phi0 - model.a @ phi0))
        checks.append(CheckResult("extension/kernel_action", ker_res, TOL_EXTENSION))

    # first resolvent identity R(z) - R(w) = (w - z) R(z) R(w), w before z
    z, w = _pairs(zs, ordered=False)
    rw_f = images[0, z, at_z[w]]
    rz_rw_f = resolvent(rw_f[:, None, :])[np.arange(z.size), at_z[z]]
    first_res = _worst_residual(rz_f[z] - rw_f, (zs[w] - zs[z])[:, None] * rz_rw_f, _vector_norm)
    # adjoint symmetry via inner products <g, R(z) f> = <R(conj z) g, f>
    adj_res = _worst_residual(_inner(gs, rz_f), _inner(images[1, rows, at_conj], fs), np.abs)
    checks.append(CheckResult("extension/first_resolvent_identity", first_res, TOL_EXTENSION))
    checks.append(CheckResult("extension/adjoint_symmetry", adj_res, TOL_EXTENSION))
    return VerificationReport(checks=tuple(checks))


def _convolution_checks() -> VerificationReport:
    """Fixed kernel-backend checks: difference/conjugate identities in
    dims 1 and 3 against quadrature product matrices, and the
    multiplier backend cross-checked against the dim-1 closed form."""
    checks = []

    z, w, zc = 1.0, 4.0, 2.0 + 1.0j
    for dim, points, product in (
        (1, [-0.4, 0.7], gbreve_g_quadrature_1d),
        (3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], gbreve_g_radial_3d),
    ):
        ps = PointSet(dim, points)
        prod = product(ps, w, z)
        diff = gamma_matrix(ps, z) - gamma_matrix(ps, w)
        conj = rel_residual(gamma_matrix(ps, np.conj(zc)), gamma_matrix(ps, zc).conj().T)
        checks.append(
            CheckResult(f"kernel{dim}d/difference", rel_residual(diff, (z - w) * prod), TOL_QUAD)
        )
        checks.append(CheckResult(f"kernel{dim}d/conjugate_symmetry", conj, 1e-12))

    sym = Multiplier1D(poly=(0.0, 0.0, -1.0))
    mult_res = 0.0
    for zq in (0.7, 2.0):
        for x in (0.0, 0.8):
            lhs = multiplier_gz_1d(sym, zq, x)
            rhs = laplacian_gz(1, abs(x), zq)
            mult_res = max(mult_res, abs(lhs - rhs) / abs(rhs))
    checks.append(CheckResult("multiplier/laplacian_crosscheck", mult_res, 1e-8))

    return VerificationReport(checks=tuple(checks))


def run_verification(seed: int, models: int = 20) -> VerificationReport:
    """Seeded end-to-end verification run; deterministic given the seed.

    Matrix-backend identity and extension checks over a stream of random
    models (worst residual per check is reported), plus the fixed kernel
    checks at quadrature tolerance.  ``models=0`` runs the kernel checks
    only; a negative seed or count raises InvariantError.
    """
    problems = [] if seed >= 0 else [f"seed must be >= 0, got {seed}"]
    if models < 0:
        problems.append(f"models must be >= 0, got {models}")
    if problems:
        raise InvariantError(problems)
    reports = []
    degenerate = 0
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA5]))
    for model, theta, zs in random_problem_suite(seed, models):
        z_list = zs[:5]
        reports.append(check_base_identities(model, z_list))
        reports.append(check_gamma_identities(model, z_list))
        rep = check_extension(model, theta, z_list, rng=rng)
        if all(c.name != "extension/oracle_agreement" for c in rep.checks):
            degenerate += 1
        reports.append(rep)
    reports.append(_convolution_checks())
    summary = f"models={models}"
    if degenerate:
        summary += f" oracle_degenerate_skipped={degenerate}"
    return merge_reports(reports, model_summary=summary)


def verify_eigenpair(problem: ExtensionProblem, z0: float, q) -> VerificationReport:
    """Residual report for a candidate eigenpair (z0, q).

    Always checks the pencil kernel condition (tolerance 1e-9).  On the
    matrix backend it additionally applies the directly built perturbed
    matrix to the reconstructed eigenvector (relative tolerance
    ``1e-10 * (1 + |z0|)``).  A zero charge vector passes trivially
    with zero residuals.
    """
    q = np.asarray(q, dtype=complex)
    checks = []
    point = problem.evaluator.at(z0)
    residual = float(np.linalg.norm((problem.theta.entries + point.gamma) @ q))
    checks.append(CheckResult("eigenpair/pencil_kernel", residual, 1e-9))

    ev = problem.evaluator
    if isinstance(ev, MatrixEvaluator):
        try:
            b = woodbury_extension(ev.model, problem.theta)
        except OracleDegenerate:
            b = None
        if b is not None:
            v = point.actions()[2](q)
            vnorm = float(np.linalg.norm(v))
            res = 0.0 if vnorm == 0.0 else float(
                np.linalg.norm(b @ v - z0 * v) / vnorm
            )
            checks.append(
                CheckResult("eigenpair/oracle_action", res, 1e-10 * (1.0 + abs(z0)))
            )

    return VerificationReport(checks=tuple(checks))
