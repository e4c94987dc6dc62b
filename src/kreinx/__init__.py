"""Rank-N singular perturbations of self-adjoint operators.

Pencil machinery (krein), an exact matrix oracle (matrixmodel), closed
form Laplacian kernels with point traces and eigenfunctions (greens),
generic 1-d multiplier kernels (multiplier), a real-line pole solver
(spectral), and the identity and eigenpair checks (verify).
"""

from .bessel import k0_bessel
from .errors import *  # noqa: F401,F403 - flat exception namespace
from .greens import (
    LaplacianGrid1DEvaluator,
    LaplacianPointEvaluator,
    PointSet,
    eigenfunction_eval,
    eigenfunction_l2_norm,
    g0,
    gamma_matrix,
    gz,
    renormalized_diagonal,
)
from .krein import (
    EvaluationPoint,
    ExtensionProblem,
    GammaEvaluator,
    ThetaMatrix,
    gamma_theta,
    krein_apply,
    krein_resolvent,
)
from .matrixmodel import (
    MatrixEvaluator,
    MatrixModel,
    base_resolvent,
    direct_eigs,
    g_maps,
    gamma,
    random_model,
    random_theta,
    woodbury_extension,
)
from .multiplier import (
    Multiplier1D,
    MultiplierAnchoredEvaluator,
    anchored_gamma_1d,
    multiplier_gz_1d,
)
from .spectral import SpectrumReport, scan_spectrum
from .verify import (
    CheckResult,
    VerificationReport,
    check_base_identities,
    check_extension,
    check_gamma_identities,
    run_verification,
    verify_eigenpair,
)

__version__ = "0.1.0"
