"""Exception hierarchy for the pipeline."""


class CdspError(Exception):
    """Base class for all pipeline errors."""


class NotARoot(CdspError):
    """Synthetic division attempted at a point that is not a root."""


class IdentityResidual(CdspError):
    """The spectral factor misses the factorization identity by more than the policy's identity_tol."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"factorization identity residual {residual:.3e} exceeds identity_tol {tol:g}")
        self.residual, self.tol = residual, tol


class NotPSD(CdspError):
    """A matrix required to be positive semidefinite has a significantly negative pivot
    (``pivot`` at ``index``; both None when the clamped factor fails to reconstruct it)."""

    def __init__(self, message: str, pivot=None, index=None):
        super().__init__(message)
        self.pivot, self.index = pivot, index


class Singular(CdspError):
    """A linear system is numerically singular."""


class ParseError(CdspError):
    """Malformed measure specification."""


class PolicyError(CdspError, ValueError):
    """A numeric policy has an unknown key or an out-of-range value."""


class ValidationError(CdspError):
    """A measure violates its invariants (no atom, duplicate atoms, nonpositive weight, off-circle point)."""


class RootOnCircle(CdspError):
    """Spectral factorization found a root too close to the unit circle; measure is degenerate for this pipeline."""


class PairingFailure(CdspError):
    """Roots could not be matched into reflection pairs (beta, 1/conj(beta))."""


class PoleHit(CdspError):
    """Evaluation requested at (or too near) a pole."""


class DegenerateAtom(CdspError):
    """The outer function has a vanishing derivative at an atom."""


class IllConditioned(CdspError):
    """A computed quantity is not trustworthy: S on the unit-circle grid is not Hermitian, so
    its coefficients do not refit it, S at a root pair has no positive scale to be read
    against, or a positivity probe's moment truncation is not finite."""


class DegenerateAlphas(CdspError):
    """Exterior roots are not pairwise distinct."""


class Overflow(CdspError):
    """A coefficient-shift would push mass past the truncation boundary."""
