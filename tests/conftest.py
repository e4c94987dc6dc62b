import numpy as np
import pytest
from scipy import special

from kreinx import (
    ExtensionProblem,
    MatrixEvaluator,
    MatrixModel,
    ThetaMatrix,
)


@pytest.fixture()
def two_level_model():
    # a = diag(1, -1), one trace row (1, 1); every derived quantity has a
    # short closed form, e.g. gamma(z) = -2z/(z^2 - 1)
    return MatrixModel(np.diag([1.0, -1.0]), [[1.0, 1.0]])


@pytest.fixture()
def two_level_problem(two_level_model):
    return ExtensionProblem(MatrixEvaluator(two_level_model), ThetaMatrix([[1.0]]))


def rel_err(got, want):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    denom = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / denom


def complex_gamma_matrix(ps, z):
    """Reference trace matrix in complex arithmetic throughout: the
    principal root of z + 0j, complex exp, and AMOS kv in the plane."""
    kappa = np.sqrt(complex(z) + 0j)
    r = ps.distances + np.eye(ps.n_points)
    if ps.dim == 1:
        out = -r / 2.0 - np.exp(-kappa * r) / (2.0 * kappa)
        diagonal = -1.0 / (2.0 * kappa)
    elif ps.dim == 2:
        out = (-np.log(r) - special.kv(0, kappa * r)) / (2.0 * np.pi)
        diagonal = (np.log(kappa / 2.0) + np.euler_gamma) / (2.0 * np.pi)
    else:
        out = 1.0 / (4.0 * np.pi * r) - np.exp(-kappa * r) / (4.0 * np.pi * r)
        diagonal = kappa / (4.0 * np.pi)
    np.fill_diagonal(out, diagonal)
    return out


def count_eighs(monkeypatch, n):
    """List that grows by one per ``numpy.linalg.eigh`` call on an n x n
    matrix for the rest of the test."""
    calls = []
    eigh = np.linalg.eigh

    def counted(m, *args, **kwargs):
        if np.shape(m) == (n, n):
            calls.append(1)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls
