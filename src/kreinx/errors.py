"""Exception types shared across the package."""


class KreinxError(Exception):
    """Base class for all package errors."""


class OutsideResolventSet(KreinxError):
    """The spectral parameter lies outside the backend's resolvent set."""


class SingularPencil(KreinxError):
    """The shifted coupling matrix is numerically singular at this point.

    Such a point is (numerically) a pole of the perturbed resolvent, i.e.
    an eigenvalue of the perturbed operator; it must be located by the
    spectral solver, not inverted through.
    """


class NotHermitian(KreinxError):
    """A matrix required to be hermitian is not (within tolerance)."""


class UnsupportedAction(KreinxError):
    """The backend does not implement this function-space action."""


class SpectrumHit(KreinxError):
    """The point lies on, or too close to, the spectrum of the base matrix."""


class OracleDegenerate(KreinxError):
    """The additive low-rank form of the perturbed matrix does not exist
    because the anchor pencil is singular; the resolvent-formula route is
    still valid."""


class NonpositiveRadius(KreinxError):
    """Kernel evaluation requested at radius <= 0 where it is singular."""


class NonpositiveArgument(KreinxError):
    """Special-function argument must be strictly positive."""


class BranchCut(KreinxError):
    """Spectral parameter on the branch cut (-inf, 0] of the square root."""


class GridTooCoarse(KreinxError):
    """Quadrature grid step too large for the requested decay rate."""


class SymbolRangeHit(KreinxError):
    """Spectral parameter is inside (or touching) the closure of the
    symbol's range; the inversion integral is singular."""


class TailEstimateFailed(KreinxError):
    """The quadrature error estimate did not reach the requested target."""


class IntervalOutsideResolventSet(KreinxError):
    """Scan interval is not contained in the base operator's real
    resolvent set."""


class EvaluationAtSingularity(KreinxError):
    """Eigenfunction evaluation requested at an interaction point where
    the kernel diverges."""


class SchemaError(KreinxError):
    """Structural config error; carries every violation found."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class InvariantError(KreinxError):
    """Semantic config/model invariant violation; carries every violation."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = (violations,)
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class CsvWriteError(KreinxError):
    """CSV output refused (non-finite value or schema mismatch) or failed."""


class PencilNotMonotone(KreinxError):
    """A sorted pencil eigenvalue branch does not increase across a scan
    window, so the evaluator is not Nevanlinna there and the inertia
    count does not certify the roots."""


class InertiaMismatch(KreinxError):
    """The roots a scan located do not account for the Sylvester inertia
    count of its window."""
