import numpy as np
import pytest

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
